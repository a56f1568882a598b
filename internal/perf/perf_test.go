package perf

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"vsfabric/internal/obs"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.median / statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		median     float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 1, 5, 2, 9, 3, 8, 4, 7, 6}, 5.5, 2.75, 5.5, 8.25},
		{[]float64{7, 1, 3}, 3, 1, 3, 7},
		{[]float64{20, 10}, 15, 7.5, 15, 22.5},
		{[]float64{4}, 4, 4, 4, 4},
		{nil, 0, 0, 0, 0},
	} {
		if got := Median(c.xs); got != c.median {
			t.Errorf("Median(%v) = %v, want %v", c.xs, got, c.median)
		}
		q1, q2, q3 := quartilesSorted(sorted(c.xs))
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {50, 0}, {99, 0}, // p90 of 99 leaves only 9 beyond it
		{100, 0.90}, {199, 0.90}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	s := Summarize(xs)
	if s.N != 1000 || s.Median != 500.5 || s.TailP != 0.99 || s.Tail != 990 {
		t.Errorf("Summarize = %+v, want n=1000 median=500.5 p99=990", s)
	}
	if got := percentileSorted(sorted(xs), 0.5); got != 500 {
		t.Errorf("p50 by nearest rank = %v, want 500", got)
	}
	if small := Summarize(xs[:20]); small.TailP != 0 || small.Tail != 0 {
		t.Errorf("20 samples support no tail percentile, got %+v", small)
	}
}

// span builds a span over [lo,hi) milliseconds after a fixed origin.
var origin = time.Unix(1_700_000_000, 0)

func span(name string, id, parent uint64, lo, hi int) obs.Span {
	return obs.Span{Name: name, SpanID: id, ParentID: parent, TraceID: 1,
		Start: origin.Add(time.Duration(lo) * time.Millisecond), Duration: time.Duration(hi-lo) * time.Millisecond}
}

func TestSelfTimesOverlappingAndOverhangingChildren(t *testing.T) {
	spans := []obs.Span{
		span("job", 1, 0, 0, 100),
		span("task", 2, 1, 10, 40),
		span("task", 3, 1, 30, 60),  // overlaps the first task: counted once
		span("task", 4, 1, 80, 120), // overhangs the job: clipped to it
		span("stmt", 5, 2, 15, 35),  // a grandchild: the job does not see it
		span("stray", 6, 99, 0, 50), // parent not recorded: nobody's child
	}
	want := []time.Duration{30, 10, 30, 40, 20, 50}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Errorf("self(%s #%d) = %v, want %vms", spans[i].Name, spans[i].SpanID, got[i], want[i])
		}
	}

	table := LayerTable(spans)
	if table[0].Name != "task" || table[0].Count != 3 || table[0].Self != 80*time.Millisecond || table[0].Total != 100*time.Millisecond {
		t.Errorf("LayerTable[0] = %+v, want the three tasks: self 80ms of 100ms, largest first", table[0])
	}
}

func TestAdoptReparentsByEnclosingHost(t *testing.T) {
	spans := []obs.Span{
		span("bench.op", 1, 0, 0, 100),
		span("plan", 2, 1, 0, 10),
		span("collect", 3, 1, 10, 100),
		span("v2s.job", 4, 0, 1, 9),         // the connector's own root, opened inside plan
		span("v2s.partition", 5, 4, 20, 60), // declared parent closed at 9
		span("execute", 6, 5, 25, 55),       // properly nested already
		span("outside", 7, 0, 150, 160),     // no host encloses it
	}
	Adopt(spans, map[string]bool{"bench.op": true, "plan": true, "collect": true})
	want := []uint64{0, 1, 1, 2, 3, 5, 0}
	for i, s := range spans {
		if s.ParentID != want[i] {
			t.Errorf("%s: parent %d, want %d", s.Name, s.ParentID, want[i])
		}
	}
	// With the partition under collect, collect's self time excludes it and
	// the operation has nothing left unattributed.
	self := SelfTimes(spans)
	if self[2] != 50*time.Millisecond || self[0] != 0 {
		t.Errorf("self(collect) = %v, self(bench.op) = %v; want 50ms and 0", self[2], self[0])
	}
}

func TestSpanLogDrainsAcrossRingWraparound(t *testing.T) {
	col := obs.NewCollectorCap(4)
	emit := func(n int) {
		for i := 0; i < n; i++ {
			obs.Start(col, "s", "").End(nil)
		}
	}
	emit(2) // before the log starts: skipped
	log := NewSpanLog(col)
	emit(3)
	log.Drain()
	emit(4)
	log.Drain()
	if spans, lost := log.Spans(); len(spans) != 7 || lost != 0 {
		t.Fatalf("got %d spans, %d lost; want 7, 0", len(spans), lost)
	}
	emit(6) // two overwritten before the next drain
	log.Drain()
	if spans, lost := log.Spans(); len(spans) != 11 || lost != 2 {
		t.Fatalf("got %d spans, %d lost; want 11, 2", len(spans), lost)
	}
}

func TestNilTracerIsTheMeasuredMode(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.Start(context.Background(), "x")
	sp.End(nil)
	if obs.SpanContextFrom(ctx).Valid() || tr.Observer() != nil {
		t.Fatal("a nil tracer must leave the context untraced and offer no observer")
	}
	tr = NewTracer()
	ctx, sp = tr.Start(context.Background(), "outer")
	_, inner := tr.Start(ctx, "inner")
	inner.End(nil)
	sp.End(nil)
	spans := tr.Collector().Spans()
	if len(spans) != 2 || spans[0].ParentID != spans[1].SpanID || spans[0].TraceID != spans[1].TraceID {
		t.Fatalf("inner span should be the outer's child in one trace: %+v", spans)
	}
}

func TestLoopCountsOperationsAndFailures(t *testing.T) {
	const clients, perClient = 3, 20
	var inFlight [clients]atomic.Int32
	boom := errors.New("boom")
	loop := Loop{
		Clients: clients,
		Stop:    func(_, seq int, _ time.Duration) bool { return seq >= perClient },
		Op: func(_ context.Context, client, seq int) OpResult {
			if inFlight[client].Add(1) != 1 {
				t.Errorf("client %d issued an operation before its last one returned", client)
			}
			defer inFlight[client].Add(-1)
			r := OpResult{Class: "even", Rows: 10}
			if seq%2 == 1 {
				r.Class = "odd"
			}
			switch {
			case seq%5 == 4: // seq 4, 9, 14, 19
				r.Err = boom
			case seq%7 == 6: // seq 6, 13
				r.After = func() error { return boom }
			}
			return r
		},
	}
	s := loop.Run(context.Background())
	const failedPer = 4 + 2
	if s.Attempted != clients*perClient || s.Failed != clients*failedPer {
		t.Fatalf("attempted %d failed %d, want %d and %d", s.Attempted, s.Failed, clients*perClient, clients*failedPer)
	}
	if !errors.Is(s.FirstErr, boom) {
		t.Fatalf("FirstErr = %v", s.FirstErr)
	}
	if got := len(s.Latency["even"]) + len(s.Latency["odd"]); got != clients*(perClient-failedPer) {
		t.Fatalf("%d latency samples, want one per successful operation (%d)", got, clients*(perClient-failedPer))
	}
	for i, c := range s.Clients {
		if c.Ops != perClient-failedPer || c.Rows != 10*(perClient-failedPer) || c.Elapsed <= 0 {
			t.Errorf("client %d: %+v", i, c)
		}
	}
	if s.OpsPerSecond() <= 0 || math.Abs(s.RowsPerSecond()/s.OpsPerSecond()-10) > 1e-9 {
		t.Errorf("rates: %v ops/s, %v rows/s", s.OpsPerSecond(), s.RowsPerSecond())
	}
}

func TestLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	loop := Loop{
		Clients: 2,
		Stop:    func(int, int, time.Duration) bool { return false },
		Op: func(_ context.Context, _, seq int) OpResult {
			if seq == 3 {
				cancel()
			}
			return OpResult{Class: "op"}
		},
	}
	if s := loop.Run(ctx); s.Attempted < 4 || s.Attempted > 8 {
		t.Fatalf("attempted %d operations around a cancel at the fourth", s.Attempted)
	}
}

func TestCompareHonoursBoundAndDirection(t *testing.T) {
	defs := []MetricDef{
		{Name: "rows_per_s", HigherBetter: true, Bound: 0.10},
		{Name: "p50_ms", Bound: 0.10},
		{Name: "setup_s", Bound: 0.25},
		{Name: "new_metric", Bound: 0.10},
	}
	base := Values{
		"a": {"rows_per_s": 1000, "p50_ms": 2.0, "setup_s": 4},
		"b": {"rows_per_s": 500, "p50_ms": 1.0},
	}
	cur := Values{
		"a": {"rows_per_s": 905, "p50_ms": 2.25, "setup_s": 4.9, "new_metric": 1},
		"b": {"rows_per_s": 2000}, // much faster, and one metric gone
	}
	vs := Compare(defs, base, cur)
	type key struct{ w, m string }
	got := map[key]Verdict{}
	for _, v := range vs {
		got[key{v.Workload, v.Metric}] = v
	}
	if len(vs) != 5 {
		t.Fatalf("%d verdicts, want 5 (metrics the baseline lacks are not judged): %v", len(vs), vs)
	}
	for _, c := range []struct {
		w, m      string
		worse     float64
		regressed bool
	}{
		{"a", "rows_per_s", 0.095, false}, // 9.5 % fewer rows: inside 10 %
		{"a", "p50_ms", 0.125, true},      // 12.5 % slower: outside 10 %
		{"a", "setup_s", 0.225, false},    // 22.5 % slower: inside its own 25 %
		{"b", "rows_per_s", -3, false},    // an improvement is never a regression
	} {
		v := got[key{c.w, c.m}]
		if math.Abs(v.Worse-c.worse) > 1e-9 || v.Regressed != c.regressed {
			t.Errorf("%s/%s: worse %v regressed %v, want %v %v", c.w, c.m, v.Worse, v.Regressed, c.worse, c.regressed)
		}
	}
	if v := got[key{"b", "p50_ms"}]; !v.Missing || !v.Regressed {
		t.Errorf("a gated metric missing from the run must regress: %+v", v)
	}
	if !Regressed(vs) || Regressed(vs[:1]) {
		t.Error("Regressed should report the set above and not its first verdict alone")
	}
}
