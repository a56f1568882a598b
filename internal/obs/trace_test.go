package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNewIDUniqueAcrossGoroutines(t *testing.T) {
	const perG, gs = 2000, 8
	var mu sync.Mutex
	seen := make(map[uint64]bool, perG*gs)
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]uint64, perG)
			for i := range ids {
				ids[i] = NewID()
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range ids {
				if id == 0 {
					t.Error("NewID returned 0")
				}
				if seen[id] {
					t.Errorf("NewID repeated %#x", id)
				}
				seen[id] = true
			}
		}()
	}
	wg.Wait()
}

func TestStartAssignsRootIdentity(t *testing.T) {
	c := NewCollector()
	sp := Start(c, "v2s.job", "driver")
	sc := sp.SpanContext()
	if !sc.Valid() {
		t.Fatal("root span's SpanContext should be valid")
	}
	sp.End(nil)
	got := c.Spans()[0]
	if got.TraceID == 0 || got.TraceID != got.SpanID || got.ParentID != 0 {
		t.Fatalf("root identity wrong: trace=%#x span=%#x parent=%#x", got.TraceID, got.SpanID, got.ParentID)
	}
	if !got.Root() {
		t.Fatal("root span should report Root()")
	}
}

func TestStartChildParentsUnderContextSpan(t *testing.T) {
	c := NewCollector()
	root := Start(c, "s2v.job", "driver")
	ctx := WithSpan(context.Background(), root)

	child := StartChild(ctx, c, "s2v.phase1", "exec-1")
	grandCtx := WithSpan(ctx, child)
	grand := StartChild(grandCtx, c, "copy", "v-node-2")
	grand.End(nil)
	child.End(nil)
	root.End(nil)

	spans := c.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	g, ch, r := spans[0], spans[1], spans[2]
	if r.TraceID != ch.TraceID || r.TraceID != g.TraceID {
		t.Fatalf("TraceIDs diverge: %#x %#x %#x", r.TraceID, ch.TraceID, g.TraceID)
	}
	if ch.ParentID != r.SpanID {
		t.Fatalf("child parent = %#x, want root span %#x", ch.ParentID, r.SpanID)
	}
	if g.ParentID != ch.SpanID {
		t.Fatalf("grandchild parent = %#x, want child span %#x", g.ParentID, ch.SpanID)
	}
	if ch.SpanID == r.SpanID || g.SpanID == ch.SpanID {
		t.Fatal("span IDs must be distinct along the chain")
	}
	if r.Root() && !ch.Root() && !g.Root() {
		return
	}
	t.Fatalf("Root() flags wrong: root=%v child=%v grand=%v", r.Root(), ch.Root(), g.Root())
}

func TestStartChildWithoutTraceIsFreshRoot(t *testing.T) {
	c := NewCollector()
	sp := StartChild(context.Background(), c, "execute", "n")
	sp.End(nil)
	got := c.Spans()[0]
	if !got.Root() || got.TraceID != got.SpanID {
		t.Fatalf("StartChild with no trace should open a root: %+v", got)
	}
	if StartChild(context.Background(), nil, "x", "") != nil {
		t.Fatal("StartChild with nil observer should be nil")
	}
	// WithSpan on a nil span leaves the context untouched.
	ctx := context.Background()
	if WithSpan(ctx, nil) != ctx {
		t.Fatal("WithSpan(nil) should return ctx unchanged")
	}
}

func TestSpanContextPropagation(t *testing.T) {
	if SpanContextFrom(nil).Valid() { //nolint:staticcheck // nil ctx tolerance is the contract
		t.Fatal("nil context should carry no trace")
	}
	ctx := context.Background()
	if WithSpanContext(ctx, SpanContext{}) != ctx {
		t.Fatal("installing an invalid SpanContext should be a no-op")
	}
	// A remote identity (e.g. parsed off the wire) parents children the same
	// way an in-process active span does.
	remote := SpanContext{TraceID: 0xabc, SpanID: 0xdef}
	ctx = WithSpanContext(ctx, remote)
	if got := SpanContextFrom(ctx); got != remote {
		t.Fatalf("SpanContextFrom = %+v, want %+v", got, remote)
	}
	c := NewCollector()
	sp := StartChild(ctx, c, "execute", "n")
	sp.End(nil)
	got := c.Spans()[0]
	if got.TraceID != 0xabc || got.ParentID != 0xdef {
		t.Fatalf("remote parenting wrong: %+v", got)
	}
}

func TestHistogramBucketing(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {1023, 9}, {1024, 10},
	} {
		if got := bucketOf(tc.d); got != tc.want {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.d, got, tc.want)
		}
	}
	if bucketUpper(0) != 2 || bucketUpper(9) != 1024 {
		t.Fatalf("bucketUpper wrong: %d %d", bucketUpper(0), bucketUpper(9))
	}
	if bucketUpper(63) <= 0 {
		t.Fatal("top bucket upper bound must not overflow")
	}
}

func TestCollectorHistograms(t *testing.T) {
	c := NewCollector()
	// Synthesize spans with controlled durations via SpanEnd directly.
	for i := 0; i < 90; i++ {
		c.SpanEnd(Span{Name: "execute", Duration: 100 * time.Nanosecond})
	}
	for i := 0; i < 10; i++ {
		c.SpanEnd(Span{Name: "execute", Duration: 5 * time.Microsecond})
	}
	c.SpanEnd(Span{Name: "copy", Duration: time.Millisecond})

	h, ok := c.Histogram("execute")
	if !ok {
		t.Fatal("execute histogram missing")
	}
	if h.Count != 100 {
		t.Fatalf("count = %d, want 100", h.Count)
	}
	// 100ns lands in [64,128); p50 reports the bucket midpoint 96ns.
	if h.P50 != 96*time.Nanosecond {
		t.Fatalf("p50 = %v, want 96ns", h.P50)
	}
	// The p95 rank (95) falls past the 90 fast samples into the 5µs bucket
	// [4096,8192), midpoint 6.144µs.
	if h.P95 != 6144*time.Nanosecond || h.P99 != 6144*time.Nanosecond {
		t.Fatalf("p95/p99 = %v/%v, want 6.144µs", h.P95, h.P99)
	}
	if h.Max != 8192*time.Nanosecond {
		t.Fatalf("max = %v, want 8.192µs", h.Max)
	}
	var total int64
	for _, b := range h.Buckets {
		total += b.Count
	}
	if total != h.Count {
		t.Fatalf("bucket sum %d != count %d", total, h.Count)
	}

	all := c.Histograms()
	if len(all) != 2 || all[0].Name != "copy" || all[1].Name != "execute" {
		t.Fatalf("Histograms() = %+v, want [copy execute]", all)
	}
	if _, ok := c.Histogram("nope"); ok {
		t.Fatal("unknown name should report !ok")
	}
	c.Reset()
	if _, ok := c.Histogram("execute"); ok {
		t.Fatal("Reset should clear histograms")
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	if (Histogram{}).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	// The only sample sits in bucket [4,8); every quantile reports its
	// midpoint, 6ns.
	h := Histogram{Count: 1, Buckets: []HistogramBucket{{UpperBound: 8, Count: 1}}, Max: 8}
	if h.Quantile(0) != 6 || h.Quantile(1) != 6 {
		t.Fatal("single-sample quantiles should report the only bucket's midpoint")
	}
	// The first bucket's lower bound is 0, so its midpoint is 1ns.
	h = Histogram{Count: 1, Buckets: []HistogramBucket{{UpperBound: 2, Count: 1}}, Max: 2}
	if h.Quantile(0.5) != 1 {
		t.Fatalf("first-bucket midpoint = %v, want 1ns", h.Quantile(0.5))
	}
}

// TestRingWraparoundMultipleOverwrites drives the span ring through several
// full wrap cycles, checking after every write that Snapshot() stays
// oldest-first and holds exactly the most recent entries.
func TestRingWraparoundMultipleOverwrites(t *testing.T) {
	const capacity = 4
	r := NewRing[int](capacity)
	for i := 0; i < capacity*5+3; i++ {
		r.Add(i)
		got := r.Snapshot()
		want := i + 1
		if want > capacity {
			want = capacity
		}
		if len(got) != want {
			t.Fatalf("after %d adds: len=%d, want %d", i+1, len(got), want)
		}
		for j, v := range got {
			if exp := i + 1 - len(got) + j; v != exp {
				t.Fatalf("after %d adds: snapshot[%d]=%d, want %d (oldest-first)", i+1, j, v, exp)
			}
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	c := NewCollector()
	root := Start(c, "s2v.job", "driver")
	ctx := WithSpan(context.Background(), root)
	child := StartChild(ctx, c, "copy", "v-node-1")
	child.SetPeer("exec-0")
	child.AddRows(42)
	child.AddBytes(1000)
	child.End(nil)
	bad := StartChild(ctx, c, "execute", "v-node-1")
	bad.End(errors.New("boom"))
	root.SetDetail("job j -> t")
	root.End(nil)
	// A span with no node lands on its own "(none)" track.
	Start(c, "loose", "").End(nil)

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	var meta, complete int
	byName := map[string]map[string]any{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			byName[ev.Name] = ev.Args
			if ev.Dur <= 0 {
				t.Fatalf("event %q has non-positive dur %v", ev.Name, ev.Dur)
			}
			if ev.Pid != 1 || ev.Tid < 1 {
				t.Fatalf("event %q has pid/tid %d/%d", ev.Name, ev.Pid, ev.Tid)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	// process_name + one thread_name per distinct node (driver, v-node-1,
	// (none)).
	if meta != 4 {
		t.Fatalf("got %d metadata events, want 4", meta)
	}
	if complete != 4 {
		t.Fatalf("got %d complete events, want 4", complete)
	}
	rootArgs := byName["s2v.job"]
	childArgs := byName["copy"]
	if rootArgs["trace_id"] != childArgs["trace_id"] {
		t.Fatal("trace_id not shared across the job's events")
	}
	if rootArgs["trace_id"] != rootArgs["span_id"] {
		t.Fatal("root event should have trace_id == span_id")
	}
	if childArgs["parent_id"] != rootArgs["span_id"] {
		t.Fatal("child event should point at the root span")
	}
	if fmt.Sprint(childArgs["rows"]) != "42" || fmt.Sprint(childArgs["bytes"]) != "1000" {
		t.Fatalf("child args missing rollups: %+v", childArgs)
	}
	if byName["execute"]["error"] != "boom" {
		t.Fatalf("failed span should carry its error: %+v", byName["execute"])
	}
	if byName["s2v.job"]["detail"] != "job j -> t" {
		t.Fatalf("root detail missing: %+v", byName["s2v.job"])
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	// A collector that never saw a span must still emit a valid, loadable
	// document: the process metadata record and nothing else.
	c := NewCollector()
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 1 || doc.TraceEvents[0].Ph != "M" || doc.TraceEvents[0].Name != "process_name" {
		t.Fatalf("empty collector should export only process metadata, got %+v", doc.TraceEvents)
	}
}

func TestWriteChromeTraceInFlightSpans(t *testing.T) {
	// Spans still in flight (never ended) have not been recorded by the
	// collector, so they must not appear in the export; ended spans that
	// measured a zero duration are clamped to a positive dur so trace viewers
	// keep them visible.
	c := NewCollector()
	inflight := Start(c, "still.running", "driver")
	_ = inflight // deliberately not ended
	zero := Start(c, "instant", "v-node-1")
	zero.End(nil)
	// Force the recorded duration to zero, the in-flight shape an importer
	// would otherwise drop.
	spans := c.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1 (in-flight span must not be retained)", len(spans))
	}

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	var sawInstant bool
	for _, ev := range doc.TraceEvents {
		if ev.Name == "still.running" {
			t.Fatal("in-flight span leaked into the export")
		}
		if ev.Ph == "X" && ev.Name == "instant" {
			sawInstant = true
			if ev.Dur <= 0 {
				t.Fatalf("zero-duration span exported with dur=%v, want positive clamp", ev.Dur)
			}
		}
	}
	if !sawInstant {
		t.Fatal("ended span missing from export")
	}
	// Ending the in-flight span later still lands it in the next export.
	inflight.End(nil)
	buf.Reset()
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("still.running")) {
		t.Fatal("span ended after first export missing from second export")
	}
}
