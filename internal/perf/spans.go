package perf

import (
	"context"
	"sort"
	"sync"
	"time"

	"vsfabric/internal/obs"
)

// Tracer records the benchmark's own spans — one around each public call
// into a layer — into a private collector, and hands the same collector to
// the connector as its Observer so connector spans land beside them. A nil
// *Tracer is the measured (untraced) mode: Start returns its context
// unchanged and a nil span, and Observer returns nil.
type Tracer struct {
	col *obs.Collector
}

// tracerRing bounds the tracer's collector; a SpanLog over it must Drain
// often enough that fewer spans than this complete between two calls.
const tracerRing = 8192

// NewTracer returns a recording tracer.
func NewTracer() *Tracer { return &Tracer{col: obs.NewCollectorCap(tracerRing)} }

// Observer is the tracer's collector as an obs.Observer (nil when t is nil),
// for core.WithObserver and friends.
func (t *Tracer) Observer() obs.Observer {
	if t == nil {
		return nil
	}
	return t.col
}

// Start opens a span named name under the span ctx carries (a fresh root if
// it carries none) and returns a context that parents further spans — on
// this side of the wire or the other — beneath it. Close it with End.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *obs.ActiveSpan) {
	if t == nil {
		return ctx, nil
	}
	sp := obs.StartChild(ctx, t.col, name, "bench")
	return obs.WithSpan(ctx, sp), sp
}

// Collector returns the tracer's collector, for NewSpanLog.
func (t *Tracer) Collector() *obs.Collector { return t.col }

// sourceDrain reads a collector's ring incrementally by span sequence
// number. Collectors only ever append, so everything above the last seen ID
// is new.
type sourceDrain struct {
	col  *obs.Collector
	last uint64
}

func (d *sourceDrain) drain() (spans []obs.Span, lost int) {
	all := d.col.Spans()
	i := sort.Search(len(all), func(i int) bool { return all[i].ID > d.last })
	spans = all[i:]
	if len(spans) > 0 {
		if first := spans[0].ID; first > d.last+1 {
			lost = int(first - d.last - 1)
		}
		d.last = spans[len(spans)-1].ID
	}
	return spans, lost
}

// SpanLog accumulates the spans of one traced window from several
// collectors: the tracer's and the system's own (Cluster.Obs()), whose rings
// are too small to hold a whole window. Safe for concurrent Drain calls.
type SpanLog struct {
	mu      sync.Mutex
	sources []*sourceDrain
	spans   []obs.Span
	lost    int
}

// NewSpanLog starts a log over cols, skipping whatever they already hold.
func NewSpanLog(cols ...*obs.Collector) *SpanLog {
	l := &SpanLog{}
	for _, c := range cols {
		d := &sourceDrain{col: c}
		d.drain()
		l.sources = append(l.sources, d)
	}
	return l
}

// Drain moves every source's new spans into the log.
func (l *SpanLog) Drain() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.sources {
		spans, lost := s.drain()
		l.spans = append(l.spans, spans...)
		l.lost += lost
	}
}

// Spans returns everything drained so far and the number of spans the rings
// dropped before a Drain reached them.
func (l *SpanLog) Spans() ([]obs.Span, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spans, l.lost
}

func end(s obs.Span) time.Time { return s.Start.Add(s.Duration) }

func contains(outer, inner obs.Span) bool {
	return !inner.Start.Before(outer.Start) && !end(inner).After(end(outer))
}

// Adopt re-parents, in place, every span whose declared parent is absent
// from spans or does not enclose it in time: it becomes a child of the
// innermost span named in hosts that encloses it, or a root if none does.
// Connector spans need this twice over: core opens its own root span per
// job (no context reaches it from the caller), and a V2S partition's
// declared parent, the planning span, has closed long before the partition
// runs. Hosts should be spans of one goroutine — properly nested, never
// overlapping — or "innermost" is ambiguous.
func Adopt(spans []obs.Span, hosts map[string]bool) {
	byID := make(map[uint64]int, len(spans))
	var hostIdx []int
	for i, s := range spans {
		byID[s.SpanID] = i
		if hosts[s.Name] {
			hostIdx = append(hostIdx, i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if p, ok := byID[s.ParentID]; ok && s.ParentID != 0 && contains(spans[p], *s) {
			continue
		}
		s.ParentID = 0
		best := -1
		for _, h := range hostIdx {
			if h == i || !contains(spans[h], *s) {
				continue
			}
			if best < 0 || spans[h].Duration < spans[best].Duration {
				best = h
			}
		}
		if best >= 0 {
			s.ParentID = spans[best].SpanID
		}
	}
}

// SelfTimes returns, aligned with spans, each span's self time: its duration
// minus the part of its interval that its direct children cover. Children
// that overlap one another (parallel tasks under one job) are counted once,
// and a child reaching outside its parent is clipped to it.
func SelfTimes(spans []obs.Span) []time.Duration {
	type interval struct{ lo, hi time.Time }
	kids := make(map[uint64][]interval)
	for _, s := range spans {
		if s.ParentID != 0 {
			kids[s.ParentID] = append(kids[s.ParentID], interval{s.Start, end(s)})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := kids[s.SpanID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo.Before(ivs[b].lo) })
		covered := time.Duration(0)
		cursor := s.Start
		for _, iv := range ivs {
			lo, hi := iv.lo, iv.hi
			if lo.Before(cursor) {
				lo = cursor
			}
			if hi.After(end(s)) {
				hi = end(s)
			}
			if hi.After(lo) {
				covered += hi.Sub(lo)
				cursor = hi
			}
		}
		self[i] = s.Duration - covered
	}
	return self
}

// LayerRow is one line of a layer table: every span of one name.
type LayerRow struct {
	Name  string        `json:"name"`
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
	Self  time.Duration `json:"self_ns"`
}

// LayerTable sums duration and self time by span name, largest self time
// first.
func LayerTable(spans []obs.Span) []LayerRow {
	self := SelfTimes(spans)
	byName := make(map[string]*LayerRow)
	for i, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &LayerRow{Name: s.Name}
			byName[s.Name] = r
		}
		r.Count++
		r.Total += s.Duration
		r.Self += self[i]
	}
	rows := make([]LayerRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Self != rows[j].Self {
			return rows[i].Self > rows[j].Self
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}
