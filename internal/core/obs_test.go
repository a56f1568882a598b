package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"vsfabric/internal/client"
	"vsfabric/internal/obs"
	"vsfabric/internal/sim"
	"vsfabric/internal/spark"
	"vsfabric/internal/types"
	"vsfabric/internal/vertica"
)

// query runs one statement through a fresh session and returns its rows.
func (h *harness) query(t *testing.T, sql string) []types.Row {
	t.Helper()
	s, err := h.cluster.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Execute(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res.Rows
}

// obsHarness is a harness whose source reports to the cluster's own
// collector, so connector spans and resilience events surface in v_monitor.
func obsHarness(t *testing.T, vNodes, sNodes int) *harness {
	t.Helper()
	h := newHarness(t, vNodes, sNodes, nil)
	h.src.WithObserver(h.cluster.Obs())
	return h
}

func spansByName(h *harness, name string) []obs.Span {
	var out []obs.Span
	for _, sp := range h.cluster.Obs().Spans() {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// checkCopyStages verifies the inside of every engine-side copy span: its
// stages are child spans in its trace, each started one ended, and they stop
// where the load stopped — decode, append and wal all clean under a load that
// succeeded; under one whose stream died, a failed copy.decode and nothing
// after it. It returns how many loads of each kind it saw.
func checkCopyStages(t *testing.T, h *harness) (clean, died int) {
	t.Helper()
	stages := make(map[uint64]map[string]obs.Span)
	for _, sp := range h.cluster.Obs().Spans() {
		if !strings.HasPrefix(sp.Name, "copy.") {
			continue
		}
		if stages[sp.ParentID] == nil {
			stages[sp.ParentID] = make(map[string]obs.Span)
		}
		if _, dup := stages[sp.ParentID][sp.Name]; dup {
			t.Errorf("two %s spans under one copy span", sp.Name)
		}
		stages[sp.ParentID][sp.Name] = sp
	}
	for _, cp := range spansByName(h, "copy") {
		st := stages[cp.SpanID]
		delete(stages, cp.SpanID)
		for name, sp := range st {
			if sp.TraceID != cp.TraceID || sp.Node != cp.Node {
				t.Errorf("%s span %+v is not in its copy span's trace and node %+v", name, sp, cp)
			}
		}
		dec, ok := st["copy.decode"]
		switch {
		case !ok:
			t.Errorf("copy span %+v has no copy.decode child (children: %v)", cp, st)
		case cp.OK():
			clean++
			if len(st) != 3 || !dec.OK() || !st["copy.append"].OK() || !st["copy.wal"].OK() {
				t.Errorf("clean copy span's stages = %+v, want clean decode, append and wal", st)
			}
			if st["copy.append"].Start.Before(dec.Start) || st["copy.wal"].Start.Before(st["copy.append"].Start) {
				t.Errorf("copy stages out of order: %+v", st)
			}
		case dec.Err != "":
			died++
			if len(st) != 1 || dec.Err != cp.Err {
				t.Errorf("copy died decoding (%s) but its stages are %+v", cp.Err, st)
			}
		default:
			if st["copy.append"].Err != cp.Err && st["copy.wal"].Err != cp.Err {
				t.Errorf("failed copy span %+v: no stage carries its error: %+v", cp, st)
			}
		}
	}
	if len(stages) != 0 {
		t.Errorf("copy stage spans with no copy span above them: %+v", stages)
	}
	return clean, died
}

// taskDials is a connector that counts, per task record (sim.TaskFrom of
// the dial's context), the connections it opened.
type taskDials struct {
	inner client.Connector
	mu    sync.Mutex
	n     map[*sim.TaskRec]int
}

func (d *taskDials) Connect(ctx context.Context, addr string) (client.Conn, error) {
	conn, err := d.inner.Connect(ctx, addr)
	if err == nil {
		d.mu.Lock()
		d.n[sim.TaskFrom(ctx)]++
		d.mu.Unlock()
	}
	return conn, err
}

// TestVMonitorAfterConnectorRoundTrip: after a V2S load and an S2V save, the
// connector's spans are queryable through the v_monitor system tables and
// the collector holds the full span taxonomy — and nothing of the cost trace,
// which the same traced jobs record in their task records alone.
func TestVMonitorAfterConnectorRoundTrip(t *testing.T) {
	h := obsHarness(t, 4, 2)
	trace := sim.NewTrace()
	h.sc = spark.NewContext(spark.Conf{NumExecutors: 2, Trace: trace})
	dials := &taskDials{inner: client.InProc(h.cluster), n: map[*sim.TaskRec]int{}}
	h.src = NewDefaultSource(dials).WithObserver(h.cluster.Obs())
	h.src.Register()
	h.seedTable(t, "d1", 500)
	h.cluster.Obs().Reset() // drop the seeding noise; watch only the jobs

	const parts = 4
	df, err := h.sc.Read().Format(DefaultSourceName).Options(loadOpts(h, "d1", parts)).Load()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 500 {
		t.Fatalf("V2S returned %d rows, want 500", len(rows))
	}

	// Partition spans: one per V2S partition, each carrying its row count.
	pspans := spansByName(h, "v2s.partition")
	if len(pspans) != parts {
		t.Fatalf("v2s.partition spans = %d, want %d", len(pspans), parts)
	}
	var pRows int64
	for _, sp := range pspans {
		if !sp.OK() {
			t.Errorf("partition span failed: %+v", sp)
		}
		pRows += sp.Rows
	}
	if pRows != 500 {
		t.Errorf("partition spans account for %d rows, want 500", pRows)
	}

	// Saving the same (lazy) DataFrame re-runs the V2S scan underneath the
	// S2V job, so both directions land in one trace.
	err = df.Write().Format(DefaultSourceName).
		Options(map[string]string{"host": h.host, "table": "d2", "jobname": "obs_job"}).
		Mode(spark.SaveOverwrite).Save()
	if err != nil {
		t.Fatal(err)
	}

	// S2V: one setup span, phase spans for every phase a task entered, and
	// exactly one committer that ran phases 3-5.
	if got := spansByName(h, "s2v.setup"); len(got) != 1 || !got[0].OK() {
		t.Fatalf("s2v.setup spans = %+v, want one clean span", got)
	}
	p1 := spansByName(h, "s2v.phase1")
	if len(p1) == 0 {
		t.Fatal("no s2v.phase1 spans recorded")
	}
	var staged int64
	for _, sp := range p1 {
		staged += sp.Rows
	}
	if staged != 500 {
		t.Errorf("phase1 spans staged %d rows, want 500", staged)
	}
	if got := spansByName(h, "s2v.phase5"); len(got) != 1 || !got[0].OK() {
		t.Fatalf("s2v.phase5 spans = %+v, want exactly one committer", got)
	}
	for _, sp := range append(spansByName(h, "s2v.phase2"), spansByName(h, "s2v.phase3")...) {
		if !strings.Contains(sp.Detail, "job obs_job") {
			t.Errorf("phase span detail %q does not name the job", sp.Detail)
		}
	}
	if clean, died := checkCopyStages(t, h); clean == 0 || died != 0 {
		t.Errorf("copy spans: %d clean, %d died decoding; want every staged partition's load clean", clean, died)
	}

	// The same history through SQL: query_requests saw the tasks' statements
	// (with the executor recorded as the client), load_streams saw one COPY
	// per staged partition, and projection_storage reflects the new table.
	s, err := h.cluster.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Execute("SELECT COUNT(*) FROM v_monitor.query_requests")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Value(); v.I == 0 {
		t.Error("query_requests is empty after a connector round trip")
	}
	res, err = s.Execute("SELECT accepted_row_count FROM v_monitor.load_streams WHERE success = TRUE")
	if err != nil {
		t.Fatal(err)
	}
	var loaded int64
	for _, r := range res.Rows {
		loaded += r[0].I
	}
	if loaded != 500 {
		t.Errorf("load_streams accepted %d rows, want 500", loaded)
	}
	res, err = s.Execute("SELECT COUNT(*) FROM v_monitor.projection_storage WHERE anchor_table_name = 'd2'")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Value(); v.I != int64(h.cluster.NumNodes()) {
		t.Errorf("projection_storage rows for d2 = %d, want %d", v.I, h.cluster.NumNodes())
	}

	// The cost trace has its own channel: no connect record reached the
	// collector, and every task record holds one FixedConnect per connection
	// its work opened.
	if n := h.cluster.Obs().Counter("sim"); n != 0 {
		t.Errorf("the collector counted %d sim events, want 0", n)
	}
	if res := h.query(t, "SELECT * FROM v_monitor.counters WHERE counter_name = 'sim'"); len(res) != 0 {
		t.Errorf("v_monitor.counters has a sim row: %v", res)
	}
	traced := 0
	for _, task := range trace.Tasks() {
		connects := 0
		for _, e := range task.Events() {
			if e.Type == sim.FixedEv && e.FixedKind == sim.FixedConnect {
				connects++
			}
		}
		if connects != dials.n[task] {
			t.Errorf("task %s recorded %d connects, opened %d connections", task.ID, connects, dials.n[task])
		}
		traced += connects
	}
	if traced == 0 {
		t.Error("no task record holds a connect")
	}
}

// TestV2SJobTrace: a V2S load is one distributed trace — a v2s.job root
// opened by the driver at planning time, partition spans parented under it,
// and the engine's execute spans parented under the partitions — and
// v_monitor.job_traces rolls it up with the duration derived from the whole
// trace's extent (the root closes before the lazy tasks run).
func TestV2SJobTrace(t *testing.T) {
	h := obsHarness(t, 4, 2)
	h.seedTable(t, "traced", 400)
	h.cluster.Obs().Reset()

	const parts = 4
	df, err := h.sc.Read().Format(DefaultSourceName).Options(loadOpts(h, "traced", parts)).Load()
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := df.Collect(); err != nil || len(rows) != 400 {
		t.Fatalf("collect: %d rows, err %v", len(rows), err)
	}

	spans := h.cluster.Obs().Spans()
	byID := make(map[uint64]obs.Span, len(spans))
	for _, sp := range spans {
		byID[sp.SpanID] = sp
	}
	roots := spansByName(h, "v2s.job")
	if len(roots) != 1 || !roots[0].Root() || !roots[0].OK() {
		t.Fatalf("v2s.job roots = %+v, want one clean root", roots)
	}
	root := roots[0]
	taskEnd := root.Start
	for _, sp := range spans {
		if sp.TraceID != root.TraceID {
			t.Fatalf("span %q escaped the trace: %+v", sp.Name, sp)
		}
		switch sp.Name {
		case "v2s.partition":
			if sp.ParentID != root.SpanID {
				t.Fatalf("partition span parented under %#x, want root %#x", sp.ParentID, root.SpanID)
			}
			if e := sp.Start.Add(sp.Duration); e.After(taskEnd) {
				taskEnd = e
			}
		case "execute":
			parent, ok := byID[sp.ParentID]
			if !ok {
				t.Fatalf("execute span has dangling parent %#x", sp.ParentID)
			}
			if parent.Name != "v2s.partition" && parent.Name != "v2s.job" {
				t.Fatalf("execute span parented under %q", parent.Name)
			}
		}
	}

	res := h.query(t, "SELECT job_type, duration_us, span_count, phase_count, success FROM v_monitor.job_traces")
	if len(res) != 1 || res[0][0].S != "v2s.job" {
		t.Fatalf("job_traces = %+v, want one v2s.job row", res)
	}
	if res[0][3].I != parts || !res[0][4].B {
		t.Fatalf("job_traces phases/success = %+v, want %d clean partitions", res[0], parts)
	}
	// Duration must cover the lazily-run tasks, not just the root's planning
	// window.
	if wantMin := taskEnd.Sub(root.Start).Microseconds(); res[0][1].I < wantMin {
		t.Fatalf("job_traces duration %dµs < trace extent %dµs", res[0][1].I, wantMin)
	}
}

// TestVMonitorUnderConcurrentJobs hammers the collector from concurrent V2S
// and S2V jobs while a monitor session reads the system tables — the -race
// guard for the whole observability path.
func TestVMonitorUnderConcurrentJobs(t *testing.T) {
	h := obsHarness(t, 4, 4)
	h.seedTable(t, "src", 300)

	done := make(chan struct{})
	var mon sync.WaitGroup
	mon.Add(1)
	go func() {
		defer mon.Done()
		s, err := h.cluster.Connect(1)
		if err != nil {
			t.Error(err)
			return
		}
		defer s.Close()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, q := range []string{
				"SELECT COUNT(*) FROM v_monitor.query_requests",
				"SELECT COUNT(*) FROM v_monitor.load_streams",
				"SELECT COUNT(*) FROM v_monitor.resilience_events",
				"SELECT COUNT(*) FROM v_monitor.counters",
			} {
				if _, err := s.Execute(q); err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
			}
		}
	}()

	var jobs sync.WaitGroup
	for i := 0; i < 2; i++ {
		jobs.Add(2)
		go func() {
			defer jobs.Done()
			df, err := h.sc.Read().Format(DefaultSourceName).Options(loadOpts(h, "src", 4)).Load()
			if err != nil {
				t.Error(err)
				return
			}
			rows, err := df.Collect()
			if err != nil {
				t.Error(err)
				return
			}
			if len(rows) != 300 {
				t.Errorf("concurrent V2S returned %d rows, want 300", len(rows))
			}
		}()
		go func(i int) {
			defer jobs.Done()
			df := testDF(h, 200, 4)
			err := df.Write().Format(DefaultSourceName).
				Options(loadOpts(h, fmt.Sprintf("conc_out_%d", i), 4)).
				Mode(spark.SaveOverwrite).Save()
			if err != nil {
				t.Errorf("concurrent S2V: %v", err)
			}
		}(i)
	}
	jobs.Wait()
	close(done)
	mon.Wait()

	for i := 0; i < 2; i++ {
		if got := h.count(t, fmt.Sprintf("conc_out_%d", i)); got != 200 {
			t.Errorf("conc_out_%d has %d rows, want 200", i, got)
		}
	}
	if got := int(h.cluster.Obs().Counter("span.v2s.partition")); got != 8 {
		t.Errorf("v2s.partition span counter = %d, want 8", got)
	}
}

// TestS2VFailureSpanCompleteness: when an S2V job dies mid-protocol, every
// phase a task entered still closes its span — the failing phase carries the
// error, and the job's permanent status row records the failure.
func TestS2VFailureSpanCompleteness(t *testing.T) {
	h := newChaosHarness(t, 2, 2, 1, vertica.Config{})
	h.src.WithObserver(h.cluster.Obs())
	h.cluster.Obs().Reset()

	// Every task COPY stream is severed and the scheduler allows no retries:
	// the job must fail in phase 1.
	h.chaos.SeverCopyAfter("", 256, 8)
	df := testDF(h.harness, 2000, 2)
	err := df.Write().Format(DefaultSourceName).
		Options(fastRetry(loadOpts(h.harness, "doomed", 2))).
		Mode(spark.SaveOverwrite).Save()
	if err == nil {
		t.Fatal("severed COPY with no task retries should fail the job")
	}

	setup := spansByName(h.harness, "s2v.setup")
	if len(setup) != 1 || !setup[0].OK() {
		t.Fatalf("s2v.setup spans = %+v, want one clean span", setup)
	}
	p1 := spansByName(h.harness, "s2v.phase1")
	if len(p1) == 0 {
		t.Fatal("failed job recorded no s2v.phase1 spans")
	}
	failed := 0
	for _, sp := range p1 {
		if sp.Err != "" {
			failed++
		}
	}
	if failed == 0 {
		t.Fatalf("no phase1 span carries the failure: %+v", p1)
	}
	// No task got past staging, so the commit phases never opened spans.
	if got := spansByName(h.harness, "s2v.phase5"); len(got) != 0 {
		t.Errorf("phase5 spans on a job that died in phase1: %+v", got)
	}
	// The engine saw each severed stream die inside its decode stage, and
	// closed that stage's span with the load's error; nothing was appended.
	if clean, died := checkCopyStages(t, h.harness); clean != 0 || died == 0 {
		t.Errorf("copy spans: %d clean, %d died decoding; want only loads that died decoding", clean, died)
	}

	res := h.query(t, "SELECT status FROM "+JobStatusTable)
	if len(res) != 1 || res[0][0].S != "FAILED" {
		t.Errorf("job status rows = %+v, want one FAILED row", res)
	}
}

// TestResilienceEventsAfterInjectedFault: connection faults absorbed by the
// resilient pool surface as rows in v_monitor.resilience_events.
func TestResilienceEventsAfterInjectedFault(t *testing.T) {
	h := newChaosHarness(t, 4, 2, 4, vertica.Config{})
	h.src.WithObserver(h.cluster.Obs())
	h.seedTable(t, "rt", 200)
	h.cluster.Obs().Reset()

	h.chaos.RefuseConnect(h.host, 2)
	df, err := h.sc.Read().Format(DefaultSourceName).Options(fastRetry(loadOpts(h.harness, "rt", 2))).Load()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatalf("refused connects should be retried: %v", err)
	}
	if len(rows) != 200 {
		t.Fatalf("got %d rows, want 200", len(rows))
	}
	if got := len(h.chaos.Log()); got != 2 {
		t.Fatalf("chaos log = %v, want both refusals injected", h.chaos.Log())
	}

	res := h.query(t, "SELECT COUNT(*) FROM v_monitor.resilience_events WHERE event_type = 'conn_failure'")
	if res[0][0].I < 2 {
		t.Errorf("conn_failure events = %d, want >= 2", res[0][0].I)
	}
	res = h.query(t, "SELECT COUNT(*) FROM v_monitor.resilience_events WHERE event_type = 'retry'")
	if res[0][0].I == 0 {
		t.Error("no retry events recorded for the injected refusals")
	}
	if h.cluster.Obs().Counter("backoff") == 0 {
		t.Error("no backoff counter bumps for the injected refusals")
	}
}
