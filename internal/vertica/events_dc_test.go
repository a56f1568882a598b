package vertica

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"vsfabric/internal/dc"
	"vsfabric/internal/obs"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

// collectCol returns one string column of a system-table read.
func collectCol(t *testing.T, s *Session, query string, col int) []string {
	t.Helper()
	res, err := s.Execute(query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, r[col].S)
	}
	return out
}

// TestDCQueryRequestsSurviveCrash is the tentpole's acceptance scenario: a
// durable cluster spools query history to disk as it happens; a simulated
// kill-9 mid-spool (torn frame on disk) loses nothing that was acked, and a
// reopened cluster answers "what ran before the crash" from
// v_monitor.dc_query_requests.
func TestDCQueryRequestsSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, dir)
	s, err := c.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	s.MustExecute("CREATE TABLE crashq (id INTEGER, v VARCHAR) SEGMENTED BY HASH(id)")
	s.MustExecute("INSERT INTO crashq VALUES (1, 'a'), (2, 'b'), (3, 'c')")
	for i := 0; i < 8; i++ {
		s.MustExecute(fmt.Sprintf("SELECT v FROM crashq WHERE id = %d", i%3+1))
	}

	// Everything acked so far must already be on disk.
	preCrash := collectCol(t, s, "SELECT request FROM v_monitor.dc_query_requests", 0)
	if len(preCrash) < 8 {
		t.Fatalf("dc_query_requests has %d records before the crash, want >= 8", len(preCrash))
	}

	// Kill the spool mid-frame: the next append writes half a frame and
	// fails, and every spool write after that fails too. Queries must keep
	// working — observability never takes the database down.
	c.DataCollector().FailAfterRecords(0)
	for i := 0; i < 4; i++ {
		s.MustExecute("SELECT COUNT(*) FROM crashq")
	}
	if got := c.Obs().Counter("dc.errors"); got == 0 {
		t.Fatal("crashed spool recorded no dc.errors")
	}
	s.Close()
	_ = c.Close()

	// Reopen the same directory: the torn tail is truncated away and every
	// pre-crash request is still there.
	c2 := durableCluster(t, dir)
	defer c2.Close()
	s2, err := c2.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	recovered := make(map[string]int)
	for _, q := range collectCol(t, s2, "SELECT request FROM v_monitor.dc_query_requests", 0) {
		recovered[q]++
	}
	for _, q := range preCrash {
		if recovered[q] == 0 {
			t.Fatalf("request %q was acked before the crash but lost on reopen", q)
		}
		recovered[q]--
	}

	// The reopened spool appends again: new queries become new history.
	s2.MustExecute("SELECT v FROM crashq WHERE id = 1")
	after := collectCol(t, s2, "SELECT request FROM v_monitor.dc_query_requests", 0)
	if len(after) <= len(preCrash) {
		t.Fatalf("reopened spool did not grow: %d -> %d", len(preCrash), len(after))
	}
}

// TestDCReadsEncodingChosenRecords: records are spooled plain, but a record an
// earlier build wrote with an encoding chosen per column — a dictionary for a
// one-row string column — still reads back beside them. The fixture holds
// that build's storage.EncodeRows of one failover event.
func TestDCReadsEncodingChosenRecords(t *testing.T) {
	c := durableCluster(t, t.TempDir())
	defer c.Close()
	s := sess(t, c, 0)
	at := time.Unix(1700000000, 0).UTC()
	old := obs.Event{Time: at, Name: "failover", Node: "v-node-1", Detail: "written by EncodeRows"}
	payload, err := os.ReadFile("testdata/dc_resilience_event_dict.bin")
	if err != nil {
		t.Fatal(err)
	}
	if plain, _ := storage.EncodeRows(resilienceEventsSchema, []types.Row{resilienceEventRow(old)}); bytes.Equal(payload, plain) {
		t.Fatal("the fixture is a plain row block")
	}
	if err := c.DataCollector().Append(dcResilience, dc.Record{Time: at, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	c.Obs().Event(obs.Event{Name: "retry", Node: "v-node-0", Detail: "written plain"})
	res := s.MustExecute("SELECT event_type, node_address, detail FROM v_monitor.dc_resilience_events")
	got := fmt.Sprint(res.Rows)
	if len(res.Rows) != 2 || !strings.Contains(got, "failover v-node-1 written by EncodeRows") || !strings.Contains(got, "retry v-node-0 written plain") {
		t.Fatalf("dc_resilience_events = %v, want the EncodeRows record and the plain one", got)
	}
	if n := c.Obs().Counter("dc.decode_errors"); n != 0 {
		t.Fatalf("dc.decode_errors = %d", n)
	}
}

// TestDCRetentionPolicySQL drives retention through the SQL surface:
// SET_DATA_COLLECTOR_POLICY caps a component's disk budget, the oldest
// segments fall off first, and v_monitor.data_collector reports the policy.
func TestDCRetentionPolicySQL(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, dir)
	defer c.Close()
	s, err := c.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	s.MustExecute("SELECT SET_DATA_COLLECTOR_POLICY('query_requests', 4, '')")
	res := s.MustExecute("SELECT GET_DATA_COLLECTOR_POLICY('query_requests')")
	if v, _ := res.Value(); !strings.Contains(v.S, "max 4 KB") {
		t.Fatalf("GET_DATA_COLLECTOR_POLICY = %q", v.S)
	}

	s.MustExecute("CREATE TABLE ret (id INTEGER, v VARCHAR) SEGMENTED BY HASH(id)")
	pad := strings.Repeat("x", 120)
	first := fmt.Sprintf("SELECT id FROM ret WHERE v = 'first-%s'", pad)
	s.MustExecute(first)
	for i := 0; i < 200; i++ {
		s.MustExecute(fmt.Sprintf("SELECT id FROM ret WHERE v = 'fill-%03d-%s'", i, pad))
	}

	reqs := collectCol(t, s, "SELECT request FROM v_monitor.dc_query_requests", 0)
	for _, q := range reqs {
		if q == first {
			t.Fatal("oldest request survived a 4 KB budget that must have evicted it")
		}
	}
	if want := fmt.Sprintf("SELECT id FROM ret WHERE v = 'fill-%03d-%s'", 199, pad); reqs[len(reqs)-1] != want {
		t.Fatalf("newest request missing: tail is %q", reqs[len(reqs)-1])
	}

	res = s.MustExecute("SELECT bytes_on_disk, policy_max_kb FROM v_monitor.data_collector WHERE component = 'query_requests'")
	if len(res.Rows) != 1 {
		t.Fatalf("data_collector rows: %v", res.Rows)
	}
	// Budget plus one active segment of slack: retention only drops closed
	// segments, so the bound is max_kb plus the segment target.
	if got := res.Rows[0][0].I; got > 8<<10 {
		t.Fatalf("query_requests spool is %d bytes under a 4 KB policy", got)
	}
	if res.Rows[0][1].I != 4 {
		t.Fatalf("policy_max_kb = %d, want 4", res.Rows[0][1].I)
	}
}

// TestQueryEventsSeededWorkload seeds a workload that provokes four distinct
// typed engine events and checks they surface in v_monitor.query_events,
// inline in PROFILE, and as predictions in EXPLAIN.
func TestQueryEventsSeededWorkload(t *testing.T) {
	defer func(rows int64, stall time.Duration) { joinBuildRows, walFsyncStall = rows, stall }(joinBuildRows, walFsyncStall)
	joinBuildRows = 1               // any hash-join build side trips JOIN_BUILD_SIDE_LARGE
	walFsyncStall = time.Nanosecond // any commit fsync is a stall
	c, err := NewCluster(Config{
		Nodes:   2,
		DataDir: t.TempDir(), // WAL_FSYNC_STALL needs a WAL
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	s.MustExecute("CREATE TABLE ev_l (id INTEGER, v INTEGER) SEGMENTED BY HASH(id)")
	s.MustExecute("CREATE TABLE ev_r (id INTEGER, tag VARCHAR) SEGMENTED BY HASH(id)")
	var vals []string
	for i := 0; i < 300; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", i, i*2))
	}
	s.MustExecute("INSERT INTO ev_l VALUES " + strings.Join(vals, ", "))
	s.MustExecute("INSERT INTO ev_r VALUES (1, 'a'), (2, 'b'), (3, 'c')")
	// WAL_FSYNC_STALL was raised by the autocommit inserts above.
	// JOIN_BUILD_SIDE_LARGE: aggregate over a join.
	s.MustExecute("SELECT COUNT(*) FROM ev_l JOIN ev_r ON ev_l.id = ev_r.id GROUP BY tag")
	// SLOW_QUERY: a 1ns session threshold makes any statement slow.
	s.MustExecute("SET SESSION SLOW_QUERY_THRESHOLD = '1ns'")
	s.MustExecute("SELECT COUNT(*) FROM ev_l")
	s.MustExecute("SET SESSION SLOW_QUERY_THRESHOLD = '0'")

	types := make(map[string]int)
	for _, ty := range collectCol(t, s, "SELECT event_type FROM v_monitor.query_events", 0) {
		types[ty]++
	}
	for _, want := range []string{"WAL_FSYNC_STALL", "JOIN_BUILD_SIDE_LARGE", "SLOW_QUERY"} {
		if types[want] == 0 {
			t.Errorf("query_events missing %s (got %v)", want, types)
		}
	}
	if len(types) != 3 {
		t.Fatalf("query_events has %d distinct types, want exactly the 3 provoked: %v", len(types), types)
	}

	// Monitoring reads must not raise events about themselves.
	before := len(collectCol(t, s, "SELECT event_type FROM v_monitor.query_events", 0))
	s.MustExecute("SELECT event_type FROM v_monitor.query_events")
	if after := len(collectCol(t, s, "SELECT event_type FROM v_monitor.query_events", 0)); after != before {
		t.Fatalf("reading query_events raised %d events", after-before)
	}

	// PROFILE surfaces the statement's own events inline, before "total".
	res := s.MustExecute("PROFILE SELECT COUNT(*) FROM ev_l JOIN ev_r ON ev_l.id = ev_r.id GROUP BY tag")
	var evRows []string
	for _, r := range res.Rows {
		if strings.HasPrefix(r[0].S, "event: ") {
			evRows = append(evRows, r[0].S)
		}
	}
	if len(evRows) == 0 {
		t.Fatalf("PROFILE has no event rows: %v", res.Rows)
	}
	if last := res.Rows[len(res.Rows)-1][0].S; last != "total" {
		t.Fatalf("last PROFILE row = %q, want total", last)
	}

	// The aggregate over the join runs on the hash-aggregation kernel like any
	// other: its PROFILE row says so, every joined row went through a typed
	// loop, and the only event the statement raised is the join's.
	if len(evRows) != 1 || evRows[0] != "event: JOIN_BUILD_SIDE_LARGE" {
		t.Fatalf("PROFILE event rows = %v, want the join build event alone", evRows)
	}
	for _, r := range res.Rows {
		if r[0].S != "group-by" {
			continue
		}
		if !strings.Contains(r[6].S, "vectorized hash aggregation") || r[1].I != 3 || r[3].I != 3 || r[4].I != 0 {
			t.Fatalf("group-by over a join: %v, want vectorized, 3 rows in, 0 residual", r)
		}
	}

	// An expression argument over the join is interpreted for each joined row,
	// inside that same kernel.
	res = s.MustExecute("PROFILE SELECT tag, SUM(v + 1) FROM ev_l JOIN ev_r ON ev_l.id = ev_r.id GROUP BY tag")
	found := false
	for _, r := range res.Rows {
		if r[0].S == "group-by" {
			found = strings.Contains(r[6].S, "vectorized hash aggregation") && r[1].I == 3 && r[3].I == 0 && r[4].I == 3
		}
	}
	if !found {
		t.Fatalf("expression aggregate over a join: %v, want vectorized with residual_rows = 3", res.Rows)
	}

	// EXPLAIN prints the plan's operators and nothing else.
	res = s.MustExecute("EXPLAIN SELECT COUNT(*) FROM ev_l JOIN ev_r ON ev_l.id = ev_r.id GROUP BY tag")
	for _, r := range res.Rows {
		if r[1].S == "event" {
			t.Fatalf("EXPLAIN printed an event row: %v", res.Rows)
		}
	}
}

// TestQueryEventsStayInTheirOwnTable posts a resilience event to the
// collector and has a statement raise a query event: each appears only in its
// own table — resilience_events or query_events — and, after a durable close
// and reopen, only in its own dc_ table.
func TestQueryEventsStayInTheirOwnTable(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, dir)
	s, err := c.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	c.Obs().Event(obs.Event{Name: "failover", Node: "v-node-1", Detail: "moved to the next host"})
	s.MustExecute("SET SESSION SLOW_QUERY_THRESHOLD = '1ns'")
	s.MustExecute("SELECT 1")
	s.MustExecute("SET SESSION SLOW_QUERY_THRESHOLD = '0'")

	check := func(s *Session, prefix string) {
		t.Helper()
		for _, tc := range []struct{ table, want, not string }{
			{"resilience_events", "failover", "SLOW_QUERY"},
			{"query_events", "SLOW_QUERY", "failover"},
		} {
			got := collectCol(t, s, "SELECT event_type FROM v_monitor."+prefix+tc.table, 0)
			if !slices.Contains(got, tc.want) || slices.Contains(got, tc.not) {
				t.Errorf("%s%s has event types %v, want %s and no %s", prefix, tc.table, got, tc.want, tc.not)
			}
		}
	}
	check(s, "")
	check(s, "dc_")
	s.Close()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := durableCluster(t, dir)
	defer c2.Close()
	s2, err := c2.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	check(s2, "dc_")
}

// TestQueryEventsSlowQueryThresholdSetting: SET SESSION SLOW_QUERY_THRESHOLD
// takes a non-negative duration, '0' turns SLOW_QUERY off, and a negative
// value is refused and leaves the session's threshold as it was.
func TestQueryEventsSlowQueryThresholdSetting(t *testing.T) {
	c := testCluster(t, 1)
	s := sess(t, c, 0)
	slow := func() int {
		n := 0
		for _, ty := range collectCol(t, s, "SELECT event_type FROM v_monitor.query_events", 0) {
			if ty == "SLOW_QUERY" {
				n++
			}
		}
		return n
	}
	s.MustExecute("SELECT 1")
	if n := slow(); n != 0 {
		t.Fatalf("%d SLOW_QUERY events with no threshold set", n)
	}
	s.MustExecute("SET SESSION SLOW_QUERY_THRESHOLD = '1ns'")
	for _, bad := range []string{"'-5s'", "'-1ns'", "'soon'"} {
		_, err := s.Execute("SET SESSION SLOW_QUERY_THRESHOLD = " + bad)
		if err == nil || !strings.Contains(err.Error(), "bad SLOW_QUERY_THRESHOLD") {
			t.Errorf("SET SLOW_QUERY_THRESHOLD = %s: got %v, want a bad SLOW_QUERY_THRESHOLD error", bad, err)
		}
	}
	before := slow()
	s.MustExecute("SELECT 1")
	if n := slow() - before; n != 1 {
		t.Fatalf("one statement over the 1ns threshold raised %d SLOW_QUERY events, want 1", n)
	}
	s.MustExecute("SET SESSION SLOW_QUERY_THRESHOLD = '0'")
	before = slow()
	s.MustExecute("SELECT 1")
	if n := slow() - before; n != 0 {
		t.Fatalf("a statement after SLOW_QUERY_THRESHOLD = '0' raised %d SLOW_QUERY events", n)
	}
}

// TestQueryEventsPoolQueueWait provokes POOL_QUEUE_WAIT with a single-slot
// pool and statements that hold their slot long enough to guarantee a queue.
func TestQueryEventsPoolQueueWait(t *testing.T) {
	c := testCluster(t, 1)
	setup := sess(t, c, 0)
	setup.MustExecute("CREATE TABLE pq (id INTEGER)")
	setup.MustExecute("INSERT INTO pq VALUES (1)")
	setup.MustExecute("CREATE RESOURCE POOL tiny MAXCONCURRENCY 1 MAXQUEUEDEPTH NONE QUEUETIMEOUT '30s'")
	c.RegisterUDx("HOLD", func(args []types.Value, _ map[string]string) (types.Value, error) {
		time.Sleep(2 * time.Millisecond)
		return args[0], nil
	})

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := c.Connect(0)
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			if _, err := s.Execute("SET RESOURCE_POOL = tiny"); err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 5; j++ {
				if _, err := s.Execute("SELECT HOLD(id) FROM pq"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	mon := sess(t, c, 0)
	res := mon.MustExecute("SELECT event_type, value FROM v_monitor.query_events")
	n := 0
	for _, r := range res.Rows {
		if r[0].S == "POOL_QUEUE_WAIT" {
			n++
			if r[1].I <= 0 {
				t.Fatalf("POOL_QUEUE_WAIT with non-positive wait: %v", r)
			}
		}
	}
	if n == 0 {
		t.Fatal("no POOL_QUEUE_WAIT event despite guaranteed contention on a 1-slot pool")
	}
}
