package vertica

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vsfabric/internal/pool"
	"vsfabric/internal/types"
)

func TestResourcePoolDDLAndMonitor(t *testing.T) {
	c := MustNewCluster(1)
	s, _ := c.Connect(0)
	defer s.Close()

	s.MustExecute("CREATE RESOURCE POOL etl MEMORYSIZE '64M' MAXCONCURRENCY 4 MAXQUEUEDEPTH 16 QUEUETIMEOUT '2s'")
	if _, err := s.Execute("CREATE RESOURCE POOL etl"); err == nil {
		t.Fatal("duplicate CREATE should fail")
	}
	s.MustExecute("CREATE RESOURCE POOL IF NOT EXISTS etl")
	s.MustExecute("ALTER RESOURCE POOL etl MAXCONCURRENCY 2")

	res := s.MustExecute("SELECT * FROM v_monitor.resource_pools")
	var found bool
	for _, r := range res.Rows {
		if r[0].S == "etl" {
			found = true
			if r[1].I != 64<<20 || r[2].I != 2 || r[3].I != 16 || r[4].I != 2000 {
				t.Fatalf("etl row: %v", r)
			}
		}
	}
	if !found {
		t.Fatal("etl missing from v_monitor.resource_pools")
	}

	s.MustExecute("DROP RESOURCE POOL etl")
	if _, err := s.Execute("DROP RESOURCE POOL etl"); err == nil {
		t.Fatal("dropping a dropped pool should fail")
	}
	s.MustExecute("DROP RESOURCE POOL IF EXISTS etl")
	if _, err := s.Execute("DROP RESOURCE POOL general"); err == nil {
		t.Fatal("dropping general should fail")
	}
}

func TestSetResourcePool(t *testing.T) {
	c := MustNewCluster(1)
	s, _ := c.Connect(0)
	defer s.Close()
	if _, err := s.Execute("SET RESOURCE_POOL = ghost"); err == nil {
		t.Fatal("SET to unknown pool should fail")
	}
	if _, err := s.Execute("SET WHATEVER = 1"); err == nil {
		t.Fatal("unknown parameter should fail")
	}
	s.MustExecute("CREATE RESOURCE POOL p MAXCONCURRENCY 1")
	s.MustExecute("SET SESSION RESOURCE_POOL = p")
	if s.poolName != "p" {
		t.Fatalf("poolName = %q", s.poolName)
	}
	// Statements on a dropped pool fall back to general rather than failing.
	s.MustExecute("DROP RESOURCE POOL p")
	s.MustExecute("CREATE TABLE t (a INT)")
	s.MustExecute("INSERT INTO t VALUES (1)")
	if res := s.MustExecute("SELECT * FROM t"); len(res.Rows) != 1 {
		t.Fatal("query after pool drop failed")
	}
}

// TestAdmissionBoundsConcurrency runs many concurrent SELECT sessions
// through a MAXCONCURRENCY 2 pool and asserts the engine never runs more
// than 2 at once, queue waits surface in resource_queue_events and the
// pool.queue histogram, and every statement still succeeds. The same load
// outside the pool runs first as the control: it must exceed 2, or the bound
// was never exercised.
func TestAdmissionBoundsConcurrency(t *testing.T) {
	c := MustNewCluster(1)
	setup, _ := c.Connect(0)
	setup.MustExecute("CREATE TABLE t (a INT)")
	setup.MustExecute("INSERT INTO t VALUES (1)")
	setup.MustExecute("CREATE RESOURCE POOL tiny MAXCONCURRENCY 2 MAXQUEUEDEPTH NONE QUEUETIMEOUT '30s'")
	setup.Close()

	// Gate makes each admitted statement hold its slot until observed, via a
	// UDx that blocks: concurrency peaks are deterministic, not timing-luck.
	// A statement holds for `hold`, or until the peak first passes the pool's
	// limit — the one thing the control arm waits for.
	const limit = 2
	var cur, peak atomic.Int64
	var hold time.Duration
	var exceeded chan struct{}
	c.RegisterUDx("SLOWID", func(args []types.Value, _ map[string]string) (types.Value, error) {
		n := cur.Add(1)
		for {
			old := peak.Load()
			if n <= old {
				break
			}
			if peak.CompareAndSwap(old, n) {
				if old <= limit && n > limit {
					close(exceeded)
				}
				break
			}
		}
		select {
		case <-exceeded:
		case <-time.After(hold):
		}
		cur.Add(-1)
		return args[0], nil
	})

	const workers = 8
	load := func(poolName string, holdFor time.Duration) {
		peak.Store(0)
		hold, exceeded = holdFor, make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s, err := c.Connect(0)
				if err != nil {
					t.Error(err)
					return
				}
				defer s.Close()
				if poolName != "" {
					if _, err := s.Execute("SET RESOURCE_POOL = " + poolName); err != nil {
						t.Error(err)
						return
					}
				}
				for j := 0; j < 5; j++ {
					if _, err := s.Execute("SELECT SLOWID(a) FROM t"); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	load("", 10*time.Second)
	if p := peak.Load(); p <= limit {
		t.Fatalf("control: the load outside the pool peaked at %d concurrent statements, the limit of %d was never exercised", p, limit)
	}
	load("tiny", 2*time.Millisecond)
	if p := peak.Load(); p > 2 {
		t.Fatalf("observed %d concurrent statements, pool limit 2", p)
	}

	mon, _ := c.Connect(0)
	defer mon.Close()
	res := mon.MustExecute("SELECT * FROM v_monitor.resource_queue_events")
	queued := 0
	for _, r := range res.Rows {
		if r[1].S == "tiny" && r[2].S == "queued" {
			queued++
		}
	}
	if queued == 0 {
		t.Fatal("no queued events recorded despite contention")
	}
	if h, ok := c.Obs().Histogram("pool.queue"); !ok || h.P99 <= 0 {
		t.Fatalf("pool.queue histogram missing or empty: %+v ok=%v", h, ok)
	}
	st := poolStats(t, c, "tiny")
	if st.Queued == 0 || st.Admitted < workers*5 {
		t.Fatalf("pool stats: %+v", st)
	}
}

func TestAdmissionQueueTimeoutSurfaces(t *testing.T) {
	c := MustNewCluster(1)
	s, _ := c.Connect(0)
	defer s.Close()
	s.MustExecute("CREATE TABLE t (a INT)")
	s.MustExecute("INSERT INTO t VALUES (1)")
	s.MustExecute("CREATE RESOURCE POOL p MAXCONCURRENCY 1 MAXQUEUEDEPTH NONE QUEUETIMEOUT '5ms'")

	// Occupy the only slot out-of-band.
	rel, _, err := mustPool(t, c, "p").Admit(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rel()

	s.MustExecute("SET RESOURCE_POOL = p")
	_, err = s.Execute("SELECT * FROM t")
	if !errors.Is(err, pool.ErrQueueTimeout) {
		t.Fatalf("got %v, want ErrQueueTimeout", err)
	}
	// Monitoring reads stay exempt — they must work on a saturated pool.
	if _, err := s.Execute("SELECT * FROM v_monitor.resource_pools"); err != nil {
		t.Fatalf("monitoring read blocked by admission: %v", err)
	}
	if st := poolStats(t, c, "p"); st.Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", st.Timeouts)
	}
}

// TestAdmissionOutcomesRecorded provokes each admission outcome that leaves a
// record — queued, timeout, rejected, canceled — on its own single-slot pool
// whose slot is held out-of-band, and checks each lands in
// resource_queue_events and, across a durable close and reopen, in
// dc_resource_queue_events, with its pool, request type and wait.
func TestAdmissionOutcomesRecorded(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, dir)
	setup := sess(t, c, 0)
	setup.MustExecute("CREATE TABLE t (a INT)")
	setup.MustExecute("INSERT INTO t VALUES (1)")
	setup.MustExecute("CREATE RESOURCE POOL pq MAXCONCURRENCY 1 MAXQUEUEDEPTH NONE QUEUETIMEOUT '30s'")
	setup.MustExecute("CREATE RESOURCE POOL pt MAXCONCURRENCY 1 MAXQUEUEDEPTH NONE QUEUETIMEOUT '5ms'")
	setup.MustExecute("CREATE RESOURCE POOL pr MAXCONCURRENCY 1 MAXQUEUEDEPTH 0")
	setup.MustExecute("CREATE RESOURCE POOL pc MAXCONCURRENCY 1 MAXQUEUEDEPTH NONE QUEUETIMEOUT '30s'")

	// run holds the pool's only slot, runs a SELECT through the pool with ctx,
	// and once the SELECT is parked in the queue (when park is set) waits a
	// little and calls park — the release or the cancel that ends the wait.
	const parked = 2 * time.Millisecond
	run := func(poolName string, ctx context.Context, park func(release func())) error {
		rel, _, err := mustPool(t, c, poolName).Admit(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer rel()
		s := sess(t, c, 0)
		s.MustExecute("SET RESOURCE_POOL = " + poolName)
		done := make(chan error, 1)
		go func() {
			_, err := s.ExecuteContext(ctx, "SELECT a FROM t")
			done <- err
		}()
		if park != nil {
			deadline := time.Now().Add(5 * time.Second)
			for poolStats(t, c, poolName).QueueLen != 1 {
				if time.Now().After(deadline) {
					t.Fatalf("pool %s: the SELECT never queued", poolName)
				}
				time.Sleep(100 * time.Microsecond)
			}
			time.Sleep(parked)
			park(rel)
		}
		return <-done
	}
	if err := run("pq", context.Background(), func(release func()) { release() }); err != nil {
		t.Fatalf("queued: %v", err)
	}
	if err := run("pt", context.Background(), nil); !errors.Is(err, pool.ErrQueueTimeout) {
		t.Fatalf("timeout: got %v", err)
	}
	if err := run("pr", context.Background(), nil); !errors.Is(err, pool.ErrRejected) {
		t.Fatalf("rejected: got %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := run("pc", ctx, func(func()) { cancel() }); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled: got %v", err)
	}

	// outcome → the least wait it must report, in microseconds.
	want := map[string]struct {
		pool    string
		minWait int64
	}{
		"queued":   {"pq", parked.Microseconds()},
		"timeout":  {"pt", 5000},
		"rejected": {"pr", 0},
		"canceled": {"pc", parked.Microseconds()},
	}
	check := func(s *Session, table string) {
		t.Helper()
		res := s.MustExecute("SELECT pool_name, outcome, queue_wait_us, request_type FROM v_monitor." + table)
		seen := map[string]bool{}
		for _, r := range res.Rows {
			w, ok := want[r[1].S]
			if !ok || r[0].S != w.pool {
				t.Errorf("%s: unexpected record %v", table, r)
				continue
			}
			if seen[r[1].S] || r[2].I < w.minWait || r[3].S != "select" {
				t.Errorf("%s: record %v, want one %s record with wait >= %d us and request type select", table, r, r[1].S, w.minWait)
			}
			seen[r[1].S] = true
		}
		if len(seen) != len(want) {
			t.Errorf("%s records outcomes %v, want all of queued, timeout, rejected, canceled:\n%v", table, seen, res.Rows)
		}
	}
	check(setup, "resource_queue_events")
	check(setup, "dc_resource_queue_events")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := durableCluster(t, dir)
	defer c2.Close()
	check(sess(t, c2, 0), "dc_resource_queue_events")
}

func TestPoolDDLSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCluster(Config{Nodes: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := c.Connect(0)
	s.MustExecute("CREATE RESOURCE POOL keep MEMORYSIZE '8M' MAXCONCURRENCY 3")
	s.MustExecute("CREATE RESOURCE POOL gone")
	s.MustExecute("ALTER RESOURCE POOL keep MAXQUEUEDEPTH 9")
	s.MustExecute("DROP RESOURCE POOL gone")
	s.Close()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := NewCluster(Config{Nodes: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st := poolStats(t, c2, "keep")
	if st.Cfg.MemoryBytes != 8<<20 || st.Cfg.MaxConcurrency != 3 || st.Cfg.MaxQueueDepth != 9 {
		t.Fatalf("replayed config: %+v", st.Cfg)
	}
	if _, err := c2.Pools().Get("gone"); !errors.Is(err, pool.ErrNotFound) {
		t.Fatalf("dropped pool resurrected: %v", err)
	}

	// Across a checkpoint too: checkpointing truncates the WAL, so the
	// manifest must carry the pool configs.
	s2, _ := c2.Connect(0)
	s2.MustExecute("CREATE TABLE t (a INT)")
	s2.MustExecute("INSERT INTO t VALUES (1)")
	if err := c2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	c3, err := NewCluster(Config{Nodes: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	st = poolStats(t, c3, "keep")
	if st.Cfg.MaxConcurrency != 3 {
		t.Fatalf("pool lost across checkpoint: %+v", st.Cfg)
	}
}

// TestSelectHonoursCancellation: a SELECT whose context is cancelled while it
// scans stops at the next batch, fails with the context's error and gives its
// pool slot back, so a client that abandons a statement does not leave it
// running. The UDx cancels on its first call; the table's 20 containers are
// 20 batches, so a scan that ignored the context would call it 20 000 times.
func TestSelectHonoursCancellation(t *testing.T) {
	c := MustNewCluster(1)
	s, _ := c.Connect(0)
	defer s.Close()
	s.MustExecute("CREATE TABLE big (n INTEGER)")
	const loads, per = 20, 1000
	for l := 0; l < loads; l++ {
		var csv strings.Builder
		for i := 0; i < per; i++ {
			fmt.Fprintf(&csv, "%d\n", l*per+i)
		}
		if _, err := s.CopyFrom("COPY big FROM STDIN FORMAT CSV DIRECT", strings.NewReader(csv.String())); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	c.RegisterUDx("CANCEL_ONCE", func(args []types.Value, _ map[string]string) (types.Value, error) {
		if calls.Add(1) == 1 {
			cancel()
		}
		return args[0], nil
	})
	if _, err := s.ExecuteContext(ctx, "SELECT n FROM big WHERE CANCEL_ONCE(n) >= 0"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled SELECT returned err %v, want context.Canceled", err)
	}
	if n := calls.Load(); n > 2*per {
		t.Fatalf("the UDx ran %d times after the first call cancelled the statement, want at most %d (one batch per segment)", n, 2*per)
	}
	if running := poolStats(t, c, "general").Running; running != 0 {
		t.Fatalf("general pool runs %d statements after the cancelled SELECT, want 0", running)
	}
	if got := s.MustExecute("SELECT COUNT(*) FROM big").Rows[0][0].I; got != loads*per {
		t.Fatalf("session after the cancelled SELECT counts %d rows, want %d", got, loads*per)
	}
}

// TestComputedOperatorsHonourCancellation: the operators that evaluate
// expressions over their input — a computed select list, a group-by's
// argument, a WHERE over a view's rows — check the statement's context
// between batches. A SELECT its first UDx call cancels fails with
// context.Canceled after at most one batch of calls and gives its pool slot
// back.
func TestComputedOperatorsHonourCancellation(t *testing.T) {
	c := MustNewCluster(1)
	s, _ := c.Connect(0)
	defer s.Close()
	s.MustExecute("CREATE TABLE big (n INTEGER)")
	const loads, per = 20, 1000
	for l := 0; l < loads; l++ {
		var csv strings.Builder
		for i := 0; i < per; i++ {
			fmt.Fprintf(&csv, "%d\n", l*per+i)
		}
		if _, err := s.CopyFrom("COPY big FROM STDIN FORMAT CSV DIRECT", strings.NewReader(csv.String())); err != nil {
			t.Fatal(err)
		}
	}
	s.MustExecute("CREATE VIEW bigv AS SELECT n FROM big")
	for _, q := range []string{
		"SELECT CANCEL_ONCE(n) FROM big",
		"SELECT SUM(CANCEL_ONCE(n)) FROM big",
		"SELECT n FROM bigv WHERE CANCEL_ONCE(n) >= 0",
	} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		c.RegisterUDx("CANCEL_ONCE", func(args []types.Value, _ map[string]string) (types.Value, error) {
			if calls.Add(1) == 1 {
				cancel()
			}
			return args[0], nil
		})
		_, err := s.ExecuteContext(ctx, q)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled SELECT returned err %v, want context.Canceled", q, err)
		}
		if n := calls.Load(); n > per {
			t.Fatalf("%s: the UDx ran %d times after the first call cancelled the statement, want at most one batch (%d)", q, n, per)
		}
		if running := poolStats(t, c, "general").Running; running != 0 {
			t.Fatalf("%s: general pool runs %d statements after the cancelled SELECT, want 0", q, running)
		}
	}
}

func poolStats(t *testing.T, c *Cluster, name string) pool.Stats {
	t.Helper()
	return mustPool(t, c, name).Snapshot()
}

func mustPool(t *testing.T, c *Cluster, name string) *pool.Pool {
	t.Helper()
	p, err := c.Pools().Get(name)
	if err != nil {
		t.Fatalf("pool %s: %v", name, err)
	}
	return p
}
