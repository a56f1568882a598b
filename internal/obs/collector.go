package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultRingCap bounds the span and event rings of a Collector unless
// overridden — old entries are overwritten, never reallocated, so a
// long-running fabric holds a fixed observability footprint.
const DefaultRingCap = 4096

// Ring is a bounded in-memory history: a fixed-capacity buffer whose Add
// overwrites the oldest entry once full. It is the one history type of the
// fabric — the collector's spans and events, the engine's query plans,
// admission records and rebalance operations. Not safe for concurrent use:
// its owner's lock guards it.
type Ring[T any] struct {
	buf  []T
	next int // index of the slot the next write lands in
	n    int // number of valid entries (<= cap)
}

// NewRing returns an empty ring of capacity entries (DefaultRingCap if
// capacity <= 0).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		capacity = DefaultRingCap
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Add appends v, overwriting the oldest entry when the ring is full.
func (r *Ring[T]) Add(v T) {
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// Snapshot returns a copy of the entries, oldest first.
func (r *Ring[T]) Snapshot() []T {
	out := make([]T, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Collector is the production Observer: completed spans and events land in
// bounded rings, and every span/event name also bumps a counter. It backs
// the v_monitor system tables. Safe for concurrent use; when disabled via
// SetEnabled(false) both hooks return after a single atomic load and Start
// declines to open spans at all.
type Collector struct {
	enabled atomic.Bool
	seq     atomic.Uint64

	// hists maps span name → *histogram. A sync.Map keeps the per-span
	// lookup lock-free once a name has been seen (names are a small fixed
	// taxonomy, so the store path runs a handful of times per process).
	hists sync.Map

	// tapSpan and tapEvent, when set via SetTap, observe every retained span
	// and event after it lands — the durable data collector's feed. Called
	// outside the collector's lock.
	tapSpan  atomic.Pointer[func(Span)]
	tapEvent atomic.Pointer[func(Event)]

	mu       sync.Mutex
	spans    *Ring[Span]
	events   *Ring[Event]
	counters map[string]int64
}

// NewCollector returns an enabled Collector with DefaultRingCap rings.
func NewCollector() *Collector { return NewCollectorCap(DefaultRingCap) }

// NewCollectorCap returns an enabled Collector whose span and event rings
// hold at most capacity entries each.
func NewCollectorCap(capacity int) *Collector {
	c := &Collector{
		spans:    NewRing[Span](capacity),
		events:   NewRing[Event](capacity),
		counters: make(map[string]int64),
	}
	c.enabled.Store(true)
	return c
}

// Enabled reports whether the collector is recording.
func (c *Collector) Enabled() bool { return c.enabled.Load() }

// SetEnabled turns recording on or off. Disabling does not clear history.
func (c *Collector) SetEnabled(on bool) { c.enabled.Store(on) }

// Reset discards all recorded spans, events, counters, and histograms.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = NewRing[Span](len(c.spans.buf))
	c.events = NewRing[Event](len(c.events.buf))
	c.counters = make(map[string]int64)
	c.hists.Range(func(k, _ any) bool { c.hists.Delete(k); return true })
}

// SetTap installs (or clears, with nils) the span/event taps: onSpan observes
// every span SpanEnd retains (after its ID is assigned), onEvent every event
// kept in the ring. The cluster's durable data collector uses this to spool
// history to disk without a second observer fan-out at every call site. Taps
// run synchronously on the recording goroutine, outside the collector's lock,
// and only while the collector is enabled.
func (c *Collector) SetTap(onSpan func(Span), onEvent func(Event)) {
	if onSpan == nil {
		c.tapSpan.Store(nil)
	} else {
		c.tapSpan.Store(&onSpan)
	}
	if onEvent == nil {
		c.tapEvent.Store(nil)
	} else {
		c.tapEvent.Store(&onEvent)
	}
}

// SpanEnd records a completed span (assigning its ID), bumps the
// "span." + name counter, and folds the duration into the name's latency
// histogram (atomic buckets — no lock beyond the ring's existing one).
func (c *Collector) SpanEnd(sp Span) {
	if !c.enabled.Load() {
		return
	}
	sp.ID = c.seq.Add(1)
	c.histFor(sp.Name).observe(sp.Duration)
	c.mu.Lock()
	c.spans.Add(sp)
	c.counters["span."+sp.Name]++
	c.mu.Unlock()
	if tap := c.tapSpan.Load(); tap != nil {
		(*tap)(sp)
	}
}

func (c *Collector) histFor(name string) *histogram {
	if h, ok := c.hists.Load(name); ok {
		return h.(*histogram)
	}
	h, _ := c.hists.LoadOrStore(name, &histogram{})
	return h.(*histogram)
}

// Event records an event in the ring and bumps the counter named after it.
// It is the one entry for every event, the connector's resilience events and
// the engine's query events alike (IsQueryEvent tells them apart).
func (c *Collector) Event(ev Event) {
	if !c.enabled.Load() {
		return
	}
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	c.mu.Lock()
	c.counters[ev.Name]++
	c.events.Add(ev)
	c.mu.Unlock()
	if tap := c.tapEvent.Load(); tap != nil {
		(*tap)(ev)
	}
}

// Add bumps a counter by delta directly, without recording an event. This is
// the byte/record accounting path (wal.bytes and friends), where a ring entry
// per increment would be pure noise.
func (c *Collector) Add(name string, delta int64) {
	if !c.enabled.Load() {
		return
	}
	c.mu.Lock()
	c.counters[name] += delta
	c.mu.Unlock()
}

// Spans returns the retained spans, oldest first.
func (c *Collector) Spans() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spans.Snapshot()
}

// Events returns the retained events, oldest first.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events.Snapshot()
}

// Counters returns a copy of all counters.
func (c *Collector) Counters() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.counters))
	for k, v := range c.counters {
		out[k] = v
	}
	return out
}

// Counter is one named counter's value, for ordered snapshots.
type Counter struct {
	Name  string
	Value int64
}

// SortedCounters returns every counter sorted by name — the deterministic
// form v_monitor.counters and the /metrics endpoint render, so repeated
// scrapes and test snapshots never depend on map iteration order.
func (c *Collector) SortedCounters() []Counter {
	c.mu.Lock()
	out := make([]Counter, 0, len(c.counters))
	for k, v := range c.counters {
		out = append(out, Counter{Name: k, Value: v})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Counter returns one counter's value (0 if never bumped).
func (c *Collector) Counter(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters[name]
}

// Histograms snapshots every span name's latency distribution, sorted by
// name. This backs v_monitor.latency_histograms.
func (c *Collector) Histograms() []Histogram {
	var out []Histogram
	c.hists.Range(func(k, v any) bool {
		out = append(out, v.(*histogram).snapshot(k.(string)))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Histogram snapshots one span name's latency distribution; ok is false if
// no span under that name has completed.
func (c *Collector) Histogram(name string) (Histogram, bool) {
	h, ok := c.hists.Load(name)
	if !ok {
		return Histogram{}, false
	}
	return h.(*histogram).snapshot(name), true
}
