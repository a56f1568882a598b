package server

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"vsfabric/internal/client"
	"vsfabric/internal/core"
	"vsfabric/internal/obs"
	"vsfabric/internal/spark"
	"vsfabric/internal/types"
	"vsfabric/internal/vertica"
)

// idleSourceName is the format the idle-session tests register their source
// under.
const idleSourceName = "vertica-idle"

// dialCount counts the sessions a connector opens, per address, and hands
// each out as it is.
type dialCount struct {
	inner client.Connector
	mu    sync.Mutex
	n     map[string]int
}

func (d *dialCount) Connect(ctx context.Context, addr string) (client.Conn, error) {
	c, err := d.inner.Connect(ctx, addr)
	if err == nil {
		d.mu.Lock()
		d.n[addr]++
		d.mu.Unlock()
	}
	return c, err
}

func (d *dialCount) total() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, c := range d.n {
		n += c
	}
	return n
}

// eventLog records the resilience events a source reports.
type eventLog struct {
	mu  sync.Mutex
	evs []string
}

func (l *eventLog) SpanEnd(obs.Span) {}

func (l *eventLog) Event(ev obs.Event) {
	l.mu.Lock()
	l.evs = append(l.evs, fmt.Sprintf("%s %s %s", ev.Name, ev.Node, ev.Detail))
	l.mu.Unlock()
}

// take returns the events recorded so far and starts a new log.
func (l *eventLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	evs := l.evs
	l.evs = nil
	return evs
}

// idleFabric is a cluster holding table kt (KSAFE 1, so a node's rows
// survive it going down), reached in-process or over one TCP server a node,
// and a Spark context that runs one task at a time, so every job's sessions
// and events come in one order.
type idleFabric struct {
	cl      *vertica.Cluster
	conn    client.Connector
	dial    *DialConnector // nil in-process
	servers []*Server
	sc      *spark.Context
}

func newIdleFabric(t *testing.T, nodes, rows int, tcp bool) *idleFabric {
	t.Helper()
	cl, err := vertica.NewCluster(vertica.Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	f := &idleFabric{cl: cl, conn: client.InProc(cl), sc: spark.NewContext(spark.Conf{NumExecutors: 1, CoresPerExecutor: 1})}
	if tcp {
		f.dial = &DialConnector{Endpoints: map[string]string{}}
		for i := 0; i < nodes; i++ {
			f.servers = append(f.servers, f.listen(t, i))
		}
		f.conn = f.dial
	}
	s, err := cl.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.MustExecute("CREATE TABLE kt (id INTEGER, val FLOAT) SEGMENTED BY HASH(id) KSAFE 1")
	vals := make([]string, rows)
	for i := range vals {
		vals[i] = fmt.Sprintf("(%d, %d.5)", i, i)
	}
	s.MustExecute("INSERT INTO kt VALUES " + strings.Join(vals, ", "))
	return f
}

// listen starts a server for node i and points the dialer at it.
func (f *idleFabric) listen(t *testing.T, i int) *Server {
	t.Helper()
	srv := New(f.cl, i)
	ep, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	f.dial.Endpoints[f.cl.Node(i).Addr] = ep
	return srv
}

// source registers a source over conn, reporting to events; it is closed at
// cleanup, before the servers.
func (f *idleFabric) source(t *testing.T, conn client.Connector, events obs.Observer) {
	src := core.NewDefaultSource(conn).WithObserver(events)
	spark.RegisterSource(idleSourceName, src)
	t.Cleanup(src.Close)
}

// job loads and collects kt, returning its rows sorted by id.
func (f *idleFabric) job(t *testing.T, parts, want int) []types.Row {
	t.Helper()
	opts := map[string]string{"host": f.cl.Node(0).Addr, "table": "kt", "numPartitions": fmt.Sprint(parts),
		"retry_backoff_ms": "1"}
	df, err := f.sc.Read().Format(idleSourceName).Options(opts).Load()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil || len(rows) != want {
		t.Fatalf("collected %d rows (%v), want %d", len(rows), err, want)
	}
	slices.SortFunc(rows, func(a, b types.Row) int { return int(a[0].I - b[0].I) })
	return rows
}

// TestV2SSecondJobOverTCPDialsNothing: the first V2S job over TCP leaves its
// sessions idle in the source, and a second job of the same shape takes every
// session it needs from them.
func TestV2SSecondJobOverTCPDialsNothing(t *testing.T) {
	f := newIdleFabric(t, 3, 300, true)
	dials := &dialCount{inner: f.conn, n: map[string]int{}}
	f.source(t, dials, nil)
	f.job(t, 4, 300)
	first := dials.total()
	if first == 0 {
		t.Fatal("the first job dialed nothing")
	}
	f.job(t, 4, 300)
	if n := dials.total() - first; n != 0 {
		t.Fatalf("the second load and collect opened %d connections, want 0 (%v)", n, dials.n)
	}
}

// downNodeJob runs a job with node 1 DOWN, on a source whose idle set was
// warmed by an earlier job (holding sessions to node 1) or on a fresh one,
// and returns the job's rows and resilience events.
func downNodeJob(t *testing.T, tcp, warm bool) ([]types.Row, []string) {
	f := newIdleFabric(t, 3, 600, tcp)
	events := &eventLog{}
	f.source(t, f.conn, events)
	if warm {
		f.job(t, 6, 600)
		if f.cl.OpenSessions(1) == 0 {
			t.Fatal("no session to node 1 stayed idle after the first job")
		}
		events.take()
	}
	f.cl.Node(1).SetDown(true)
	rows := f.job(t, 6, 600)
	evs := events.take()
	slices.Sort(evs)
	return rows, evs
}

// TestV2SIdleSessionToDownNodeMatchesFreshDial: a node goes DOWN while the
// source holds idle sessions to it. The next job must read what a job that
// dials every session reads, and report the same recovery: in-process the
// idle session is not handed out (a dial would be refused), over TCP it is,
// and fails its statement as a fresh session to the node does.
func TestV2SIdleSessionToDownNodeMatchesFreshDial(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		t.Run(map[bool]string{false: "inproc", true: "tcp"}[tcp], func(t *testing.T) {
			warmRows, warmEvents := downNodeJob(t, tcp, true)
			freshRows, freshEvents := downNodeJob(t, tcp, false)
			if len(freshEvents) == 0 {
				t.Fatal("a job with node 1 down reported no recovery")
			}
			if !slices.Equal(warmEvents, freshEvents) {
				t.Errorf("events with idle sessions:\n%s\nevents dialing each session:\n%s",
					strings.Join(warmEvents, "\n"), strings.Join(freshEvents, "\n"))
			}
			if len(warmRows) != len(freshRows) {
				t.Fatalf("%d rows with idle sessions, %d dialing each", len(warmRows), len(freshRows))
			}
			for i := range warmRows {
				if !slices.Equal(warmRows[i], freshRows[i]) {
					t.Fatalf("row %d: %v with idle sessions, %v dialing each", i, warmRows[i], freshRows[i])
				}
			}
		})
	}
}

// TestV2SRedialsAClosedServer: a node's server closes while the source holds
// idle sessions to it, and comes back on a new endpoint. The peek finds the
// idle sessions dead, so the next job dials the node afresh: no statement
// fails and no retry is reported.
func TestV2SRedialsAClosedServer(t *testing.T) {
	f := newIdleFabric(t, 2, 400, true)
	dials := &dialCount{inner: f.conn, n: map[string]int{}}
	events := &eventLog{}
	f.source(t, dials, events)
	f.job(t, 4, 400)
	addr := f.cl.Node(1).Addr
	if f.cl.OpenSessions(1) == 0 {
		t.Fatal("no session to node 1 stayed idle after the first job")
	}
	events.take()
	f.servers[1].Close()
	f.servers[1] = f.listen(t, 1)
	before := dials.n[addr]
	f.job(t, 4, 400)
	for _, ev := range events.take() {
		if strings.HasPrefix(ev, "retry ") {
			t.Errorf("job after the server closed reported %q", ev)
		}
	}
	if dials.n[addr] == before {
		t.Errorf("the job did not redial %s", addr)
	}
}
