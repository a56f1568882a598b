// Command wireload is the closed-loop driver for the wire protocol and the
// resource-pool admission path: thousands of simulated client sessions hammer
// a TCP-served node and the latency/throughput numbers land in
// BENCH_wire.json so CI can track the protocol's trajectory.
//
// Usage:
//
//	wireload                               # full run
//	wireload -sessions 64 -requests 40
//	wireload -smoke                        # small scale; gate shape only
//
// Phase A times the wire protocol, plain and pipelined, on one query mix,
// after diffing the wire's result set cell by cell against the same query
// run in-process — a protocol that is fast but wrong fails before any
// timing runs. It runs at moderate concurrency on purpose: past the point
// where the scheduler saturates, per-request cost is dominated by context
// switching, not the codec. A separate scale phase then opens
// -scale-sessions (default 2000) concurrent connections to prove the
// server holds thousands of live sessions; that phase gates completion,
// not timing. Phase B runs the closed loop with and without a
// MAXCONCURRENCY resource pool and checks admission actually bounds
// engine-side concurrency, with queue waits visible in the pool.queue
// histogram and v_monitor.resource_queue_events. The gates are shapes
// (correctness, admission bounds), never timings; -smoke only shrinks the
// scale.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vsfabric/internal/client"
	"vsfabric/internal/server"
	"vsfabric/internal/types"
	"vsfabric/internal/vertica"
)

// Measurement is one closed-loop run over one protocol configuration.
type Measurement struct {
	Name     string  `json:"name"`
	Sessions int     `json:"sessions"`
	Requests int     `json:"requests"` // total across all sessions
	QPS      float64 `json:"qps"`
	P50us    int64   `json:"p50_us"`
	P95us    int64   `json:"p95_us"`
	P99us    int64   `json:"p99_us"`
}

// AdmissionRun is one phase-B configuration (pool on or off).
type AdmissionRun struct {
	Mode            string  `json:"mode"` // "admission-on" / "admission-off"
	PoolLimit       int     `json:"pool_limit,omitempty"`
	PeakConcurrency int64   `json:"peak_concurrency"`
	QueueEvents     int     `json:"queue_events"`
	QueueP99us      int64   `json:"queue_p99_us"`
	QPS             float64 `json:"qps"`
	P99us           int64   `json:"p99_us"`
}

// Results is the BENCH_wire.json document.
type Results struct {
	Rows          int            `json:"rows"`
	Sessions      int            `json:"sessions"`
	PerSess       int            `json:"requests_per_session"`
	ScaleSessions int            `json:"scale_sessions,omitempty"`
	Queries       []Measurement  `json:"queries"`
	Admission     []AdmissionRun `json:"admission"`
}

var bg = context.Background()

func percentileUs(lat []time.Duration, q float64) int64 {
	if len(lat) == 0 {
		return 0
	}
	i := int(q * float64(len(lat)-1))
	return lat[i].Microseconds()
}

// closedLoop runs sessions concurrent connections, each issuing perSess
// requests back to back (a closed loop: the next request leaves only when
// the previous response arrived), and summarizes latency and throughput.
func closedLoop(name, ep, sql string, sessions, perSess, pipeline int) (Measurement, error) {
	latCh := make(chan []time.Duration, sessions)
	errCh := make(chan error, sessions)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := server.DialContext(bg, ep, server.WithPeerName(fmt.Sprintf("wireload-%d", id)))
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			lat := make([]time.Duration, 0, perSess)
			if pipeline > 1 {
				p := c.Pipeline()
				for done := 0; done < perSess; {
					n := pipeline
					if perSess-done < n {
						n = perSess - done
					}
					t0 := time.Now()
					for j := 0; j < n; j++ {
						if err := p.Queue(bg, sql); err != nil {
							errCh <- err
							return
						}
					}
					results, err := p.Collect(bg)
					if err != nil {
						errCh <- err
						return
					}
					d := time.Since(t0)
					for _, r := range results {
						if r.Err != nil {
							errCh <- r.Err
							return
						}
						// Closed-loop latency of a pipelined request is the
						// batch round trip amortized over its members.
						lat = append(lat, d/time.Duration(n))
					}
					done += n
				}
			} else {
				for j := 0; j < perSess; j++ {
					t0 := time.Now()
					if _, err := c.Execute(bg, sql); err != nil {
						errCh <- err
						return
					}
					lat = append(lat, time.Since(t0))
				}
			}
			latCh <- lat
		}(i)
	}
	wg.Wait()
	close(errCh)
	close(latCh)
	if err := <-errCh; err != nil {
		return Measurement{}, fmt.Errorf("%s: %w", name, err)
	}
	elapsed := time.Since(start)
	var all []time.Duration
	for lat := range latCh {
		all = append(all, lat...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	total := sessions * perSess
	return Measurement{
		Name:     name,
		Sessions: sessions,
		Requests: total,
		QPS:      float64(total) / elapsed.Seconds(),
		P50us:    percentileUs(all, 0.50),
		P95us:    percentileUs(all, 0.95),
		P99us:    percentileUs(all, 0.99),
	}, nil
}

// diffResults compares two result sets cell by cell after sorting rows by
// their first column, so the comparison is order-insensitive.
func diffResults(a, b *vertica.Result) error {
	if a.Schema.NumCols() != b.Schema.NumCols() {
		return fmt.Errorf("schema width %d != %d", a.Schema.NumCols(), b.Schema.NumCols())
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("row count %d != %d", len(a.Rows), len(b.Rows))
	}
	byFirst := func(rows []types.Row) {
		sort.Slice(rows, func(i, j int) bool { return rows[i][0].AsInt() < rows[j][0].AsInt() })
	}
	byFirst(a.Rows)
	byFirst(b.Rows)
	for i := range a.Rows {
		for j := range a.Rows[i] {
			x, y := a.Rows[i][j], b.Rows[i][j]
			if x.Null != y.Null || x.String() != y.String() {
				return fmt.Errorf("cell [%d][%d]: %v != %v", i, j, x, y)
			}
		}
	}
	return nil
}

func setup(rows, sessions int) (*vertica.Cluster, string, error) {
	// Every driver goroutine holds one engine session; leave headroom for
	// the correctness and admin connections on top.
	cl, err := vertica.NewCluster(vertica.Config{Nodes: 1, MaxClientSessions: sessions + 64})
	if err != nil {
		return nil, "", err
	}
	s, err := cl.Connect(0)
	if err != nil {
		return nil, "", err
	}
	defer s.Close()
	if _, err := s.Execute("CREATE TABLE wt (id INTEGER, grp INTEGER, val FLOAT, tag VARCHAR)"); err != nil {
		return nil, "", err
	}
	var csv strings.Builder
	csv.Grow(rows * 24)
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&csv, "%d,%d,%d.25,tag%d\n", i, i%50, i%997, i%7)
	}
	if _, err := s.CopyFrom("COPY wt FROM STDIN", strings.NewReader(csv.String())); err != nil {
		return nil, "", err
	}
	// Move the load into ROS so the benchmark queries hit the vectorized
	// columnar path with zone-map pruning. Left in the WOS, every request
	// pays a row-at-a-time scan that dwarfs and so hides the protocol cost
	// under measurement.
	if err := cl.Moveout(); err != nil {
		return nil, "", err
	}
	srv := server.New(cl, 0)
	ep, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return cl, ep, nil
}

// admissionLoop is phase B's closed loop: every session pins itself to the
// given pool (empty = general) and runs SELECTs through a concurrency-
// tracking UDx, so the observed engine-side peak is exact, not sampled.
func admissionLoop(ep, poolName string, sessions, perSess int, cur, peak *atomic.Int64) (float64, int64, error) {
	latCh := make(chan []time.Duration, sessions)
	errCh := make(chan error, sessions)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := server.DialContext(bg, ep, server.WithPeerName(fmt.Sprintf("admload-%d", id)))
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			if poolName != "" {
				if _, err := c.Execute(bg, "SET RESOURCE_POOL = "+poolName); err != nil {
					errCh <- err
					return
				}
			}
			lat := make([]time.Duration, 0, perSess)
			for j := 0; j < perSess; j++ {
				t0 := time.Now()
				if _, err := c.Execute(bg, "SELECT HOLDID(id) FROM wt WHERE id < 4"); err != nil {
					errCh <- err
					return
				}
				lat = append(lat, time.Since(t0))
			}
			latCh <- lat
		}(i)
	}
	wg.Wait()
	close(errCh)
	close(latCh)
	if err := <-errCh; err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	var all []time.Duration
	for lat := range latCh {
		all = append(all, lat...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	total := sessions * perSess
	return float64(total) / elapsed.Seconds(), percentileUs(all, 0.99), nil
}

func run() error {
	sessions := flag.Int("sessions", 128, "concurrent client sessions for the protocol comparison")
	perSess := flag.Int("requests", 100, "requests per session")
	rows := flag.Int("rows", 20000, "rows in the benchmark table")
	pipeline := flag.Int("pipeline", 16, "pipeline depth for the pipelined run")
	scaleSessions := flag.Int("scale-sessions", 2000, "concurrent sessions for the connection-scale phase (0 skips it)")
	scaleRequests := flag.Int("scale-requests", 3, "requests per session in the connection-scale phase")
	out := flag.String("out", "BENCH_wire.json", "output JSON path")
	smoke := flag.Bool("smoke", false, "small scale, same correctness and admission gates")
	flag.Parse()

	if *smoke {
		*sessions, *perSess, *rows, *scaleSessions = 32, 10, 2000, 0
	}

	maxSess := *sessions
	if *scaleSessions > maxSess {
		maxSess = *scaleSessions
	}
	cl, ep, err := setup(*rows, maxSess)
	if err != nil {
		return err
	}

	const query = "SELECT id, grp, val, tag FROM wt WHERE id < 200"

	// Correctness gate: the wire must return exactly what the same query
	// returns in-process.
	wire, err := server.DialContext(bg, ep)
	if err != nil {
		return err
	}
	local, err := client.InProc(cl).Connect(bg, cl.Node(0).Addr)
	if err != nil {
		return err
	}
	rw, err := wire.Execute(bg, query)
	if err != nil {
		return err
	}
	rl, err := local.Execute(bg, query)
	if err != nil {
		return err
	}
	if err := diffResults(rw, rl); err != nil {
		return fmt.Errorf("wire and in-process results disagree: %w", err)
	}
	wire.Close()
	local.Close()
	fmt.Printf("correctness: wire and in-process agree on %d rows\n", len(rw.Rows))

	res := Results{Rows: *rows, Sessions: *sessions, PerSess: *perSess}
	for _, r := range []struct {
		name     string
		pipeline int
	}{
		{"binary-v2", 1},
		{"binary-v2-pipelined", *pipeline},
	} {
		m, err := closedLoop(r.name, ep, query, *sessions, *perSess, r.pipeline)
		if err != nil {
			return err
		}
		res.Queries = append(res.Queries, m)
		fmt.Printf("%-22s %9.0f qps   p50 %6dus  p95 %6dus  p99 %6dus\n",
			m.Name, m.QPS, m.P50us, m.P95us, m.P99us)
	}

	// Connection-scale phase: thousands of live sessions at once.
	// Every request must complete; the timing is reported but not gated —
	// at this concurrency the scheduler, not the protocol, sets the pace.
	if *scaleSessions > 0 {
		res.ScaleSessions = *scaleSessions
		m, err := closedLoop("binary-v2-scale", ep, query, *scaleSessions, *scaleRequests, 1)
		if err != nil {
			return fmt.Errorf("connection-scale phase: %w", err)
		}
		res.Queries = append(res.Queries, m)
		fmt.Printf("%-22s %9.0f qps   p50 %6dus  p95 %6dus  p99 %6dus  (%d sessions)\n",
			m.Name, m.QPS, m.P50us, m.P95us, m.P99us, *scaleSessions)
	}

	// Phase B: the same closed loop with engine-side admission control.
	var cur, peak atomic.Int64
	cl.RegisterUDx("HOLDID", func(args []types.Value, _ map[string]string) (types.Value, error) {
		n := cur.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(500 * time.Microsecond)
		cur.Add(-1)
		return args[0], nil
	})
	admSessions := *sessions
	if admSessions > 64 {
		admSessions = 64 // a held engine slot per session; keep the queue sane
	}
	const poolLimit = 4
	admin, err := cl.Connect(0)
	if err != nil {
		return err
	}
	if _, err := admin.Execute(fmt.Sprintf(
		"CREATE RESOURCE POOL load MAXCONCURRENCY %d MAXQUEUEDEPTH NONE QUEUETIMEOUT '60s'", poolLimit)); err != nil {
		return err
	}

	for _, mode := range []string{"admission-off", "admission-on"} {
		peak.Store(0)
		poolName := ""
		if mode == "admission-on" {
			poolName = "load"
		}
		qps, p99, err := admissionLoop(ep, poolName, admSessions, *perSess, &cur, &peak)
		if err != nil {
			return err
		}
		ar := AdmissionRun{Mode: mode, PeakConcurrency: peak.Load(), QPS: qps, P99us: p99}
		if mode == "admission-on" {
			ar.PoolLimit = poolLimit
			evRes, err := admin.Execute("SELECT * FROM v_monitor.resource_queue_events")
			if err != nil {
				return err
			}
			for _, r := range evRes.Rows {
				if r[1].S == "load" {
					ar.QueueEvents++
				}
			}
			if h, ok := cl.Obs().Histogram("pool.queue"); ok {
				ar.QueueP99us = h.P99.Microseconds()
			}
		}
		res.Admission = append(res.Admission, ar)
		fmt.Printf("%-22s %9.0f qps   p99 %6dus  peak %2d  queue-events %d  queue-p99 %dus\n",
			ar.Mode, ar.QPS, ar.P99us, ar.PeakConcurrency, ar.QueueEvents, ar.QueueP99us)
	}

	// Shape gates (enforced in smoke and full runs alike: these are
	// correctness properties, not timings).
	on := res.Admission[1]
	off := res.Admission[0]
	if on.PeakConcurrency > poolLimit {
		return fmt.Errorf("admission failed to bound concurrency: peak %d > limit %d", on.PeakConcurrency, poolLimit)
	}
	if off.PeakConcurrency <= poolLimit {
		return fmt.Errorf("admission-off control never exceeded the limit (peak %d): the bound was never tested", off.PeakConcurrency)
	}
	if on.QueueEvents == 0 {
		return fmt.Errorf("no resource_queue_events recorded under contention")
	}
	if on.QueueP99us <= 0 {
		return fmt.Errorf("pool.queue histogram empty: queue waits invisible")
	}

	doc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(doc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wireload:", err)
		os.Exit(1)
	}
}
