package vertica

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"vsfabric/internal/obs"
)

// TestVMonitorQueryRequests pins the query_requests contract: every user
// statement lands one row, monitoring reads are exempt, and disabling the
// collector stops the history without clearing it.
func TestVMonitorQueryRequests(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER, val FLOAT) SEGMENTED BY HASH(id)")
	s.MustExecute("INSERT INTO t VALUES (1, 1.5), (2, 2.5)")
	s.MustExecute("SELECT id FROM t")

	res := s.MustExecute("SELECT COUNT(*) FROM v_monitor.query_requests")
	v, _ := res.Value()
	if v.I != 3 {
		t.Fatalf("query_requests rows = %d, want 3 (CREATE, INSERT, SELECT)", v.I)
	}
	// The monitoring query itself must not have polluted the history.
	res = s.MustExecute("SELECT COUNT(*) FROM v_monitor.query_requests")
	v, _ = res.Value()
	if v.I != 3 {
		t.Fatalf("query_requests rows after monitoring read = %d, want still 3", v.I)
	}
	// Every recorded request succeeded and names the statement it ran.
	res = s.MustExecute("SELECT request, success FROM v_monitor.query_requests")
	sawSelect := false
	for _, r := range res.Rows {
		if !r[1].AsBool() {
			t.Errorf("request %q recorded success=false", r[0].S)
		}
		if r[0].S == "SELECT id FROM t" {
			sawSelect = true
		}
	}
	if !sawSelect {
		t.Error("query_requests does not record the SELECT's text")
	}

	// A failing statement is recorded with its error message.
	if _, err := s.Execute("SELECT nope FROM t"); err == nil {
		t.Fatal("bad SELECT should fail")
	}
	res = s.MustExecute("SELECT COUNT(*) FROM v_monitor.query_requests WHERE success = FALSE")
	v, _ = res.Value()
	if v.I != 1 {
		t.Fatalf("failed requests = %d, want 1", v.I)
	}

	c.Obs().SetEnabled(false)
	s.MustExecute("SELECT val FROM t")
	res = s.MustExecute("SELECT COUNT(*) FROM v_monitor.query_requests")
	v, _ = res.Value()
	if v.I != 4 {
		t.Fatalf("disabled collector still recorded: rows = %d, want 4", v.I)
	}
}

// TestSystemReadsAnyCase: a monitoring read is recognised however its
// relation name is cased and whether or not PROFILE wraps it — it takes no
// pool slot (it works on a saturated pool) and leaves no query_requests or
// query_plans row behind.
func TestSystemReadsAnyCase(t *testing.T) {
	c := testCluster(t, 1)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER)")
	s.MustExecute("INSERT INTO t VALUES (1)")
	s.MustExecute("SELECT id FROM t")
	s.MustExecute("CREATE RESOURCE POOL p MAXCONCURRENCY 1 MAXQUEUEDEPTH NONE QUEUETIMEOUT '5ms'")
	s.MustExecute("SET RESOURCE_POOL = p")
	// Occupy the pool's only slot out-of-band.
	rel, _, err := mustPool(t, c, "p").Admit(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rel()

	count := func(table string) int64 {
		v, err := s.MustExecute("SELECT COUNT(*) FROM v_monitor." + table).Value()
		if err != nil {
			t.Fatal(err)
		}
		return v.I
	}
	requests, plans := count("query_requests"), count("query_plans")
	for _, q := range []string{
		"SELECT * FROM V_MONITOR.query_requests",
		"SELECT node_name FROM V_Catalog.Nodes",
		"PROFILE SELECT * FROM v_monitor.query_plans",
		"PROFILE SELECT * FROM V_MONITOR.QUERY_PLANS",
	} {
		if _, err := s.Execute(q); err != nil {
			t.Fatalf("%s on a saturated pool: %v", q, err)
		}
	}
	if r, p := count("query_requests"), count("query_plans"); r != requests || p != plans {
		t.Fatalf("monitoring reads observed themselves: query_requests %d -> %d, query_plans %d -> %d", requests, r, plans, p)
	}
	if st := poolStats(t, c, "p"); st.Admitted != 1 || st.Timeouts != 0 {
		t.Fatalf("pool p admitted %d (want only the held slot), %d timeouts", st.Admitted, st.Timeouts)
	}
}

// TestVMonitorLoadStreams: every COPY shows up in load_streams with its
// accepted/rejected row accounting and byte count.
func TestVMonitorLoadStreams(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE lt (id INTEGER, val FLOAT) SEGMENTED BY HASH(id)")
	data := "1,1.5\n2,2.5\n3,3.5\nbad-row\n"
	res, err := s.CopyFrom("COPY lt FROM STDIN FORMAT CSV DIRECT REJECTMAX 10", strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if res.Copy.Loaded != 3 || res.Copy.Rejected != 1 {
		t.Fatalf("copy loaded/rejected = %d/%d, want 3/1", res.Copy.Loaded, res.Copy.Rejected)
	}
	mres := s.MustExecute("SELECT accepted_row_count, rejected_row_count, input_bytes, success FROM v_monitor.load_streams")
	if len(mres.Rows) != 1 {
		t.Fatalf("load_streams rows = %d, want 1", len(mres.Rows))
	}
	r := mres.Rows[0]
	if r[0].I != 3 || r[1].I != 1 {
		t.Errorf("load_streams accepted/rejected = %d/%d, want 3/1", r[0].I, r[1].I)
	}
	if r[2].I != int64(len(data)) {
		t.Errorf("load_streams input_bytes = %d, want %d", r[2].I, len(data))
	}
	if !r[3].AsBool() {
		t.Error("load_streams success = false for a completed COPY")
	}
}

// TestVMonitorProjectionStorage: per-node projection statistics reflect the
// stored data.
func TestVMonitorProjectionStorage(t *testing.T) {
	c := testCluster(t, 4)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE ps (id INTEGER, val FLOAT) SEGMENTED BY HASH(id)")
	var vals []string
	for i := 0; i < 200; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d.5)", i, i))
	}
	s.MustExecute("INSERT INTO ps VALUES " + strings.Join(vals, ", "))

	res := s.MustExecute("SELECT visible_rows FROM v_monitor.projection_storage WHERE anchor_table_name = 'ps'")
	if len(res.Rows) != c.NumNodes() {
		t.Fatalf("projection_storage rows = %d, want one per node (%d)", len(res.Rows), c.NumNodes())
	}
	var total int64
	for _, r := range res.Rows {
		total += r[0].I
	}
	if total != 200 {
		t.Errorf("visible_rows sums to %d, want 200", total)
	}
}

// TestVMonitorCountersAndEvents: counters mirror span names, and events
// posted to the collector surface through resilience_events.
func TestVMonitorCounters(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE ct (id INTEGER)")
	s.MustExecute("INSERT INTO ct VALUES (1)")

	if got := c.Obs().Counter("span.execute"); got != 2 {
		t.Fatalf("span.execute counter = %d, want 2", got)
	}
	res := s.MustExecute("SELECT counter_value FROM v_monitor.counters WHERE counter_name = 'span.execute'")
	v, err := res.Value()
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 2 {
		t.Fatalf("v_monitor.counters span.execute = %d, want 2", v.I)
	}

	c.Obs().Event(obs.Event{Name: "retry", Node: "node0001", Detail: "statement attempt 2"})
	res = s.MustExecute("SELECT event_type, detail FROM v_monitor.resilience_events WHERE event_type = 'retry'")
	if len(res.Rows) != 1 || res.Rows[0][1].S != "statement attempt 2" {
		t.Fatalf("resilience_events = %+v, want the posted retry", res.Rows)
	}
}

// TestExecuteContextPeerAndCancel: the statement context's peer name lands
// on the cluster's execute span as the client, and a cancelled context runs
// nothing.
func TestExecuteContextPeerAndCancel(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE ot (id INTEGER)")

	ctx := obs.WithPeer(context.Background(), "spark-exec-3")
	if _, err := s.ExecuteContext(ctx, "INSERT INTO ot VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}
	// The cluster-side span records the caller's peer name...
	res := s.MustExecute("SELECT client_name FROM v_monitor.query_requests WHERE request = 'INSERT INTO ot VALUES (1), (2)'")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "spark-exec-3" {
		t.Fatalf("query_requests client_name = %+v, want spark-exec-3", res.Rows)
	}

	// ...and a cancelled context refuses to execute at all.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ExecuteContext(cctx, "SELECT id FROM ot"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v, want context.Canceled", err)
	}
}
