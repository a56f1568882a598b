// Package obs is the fabric-wide observability layer: low-overhead trace
// spans and event/counter records threaded through the connector, the
// resilience layer, and the database engine. Completed spans and events land
// in a bounded in-memory Collector, which the engine exposes back through
// SQL as the v_monitor system tables — the loop real Vertica closes with
// v_monitor.query_requests and PROFILE.
//
// The layer is built to cost nothing when unused: a nil Observer produces a
// nil *ActiveSpan whose methods are no-ops, a disabled Collector refuses
// spans before any clock is read, and hot paths guard with a single nil or
// atomic-bool check.
package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// Span is one completed, timed operation: a SQL execute, a COPY stream, a
// V2S partition read, one S2V phase. Err is empty on success.
type Span struct {
	ID     uint64
	Name   string // span taxonomy name, e.g. "execute", "copy", "v2s.partition", "s2v.phase1"
	Node   string // database node involved ("" if none)
	Peer   string // client/executor on the other end ("" if none)
	Detail string // SQL text, table name, or phase detail

	// TraceID groups every span of one distributed job, SpanID identifies
	// this span within it, and ParentID links to the parent span (0 = root).
	// A root span's TraceID equals its SpanID, so a trace is named by its
	// root. The identity crosses goroutines via context (WithSpan) and
	// process boundaries via SpanContext (the wire protocol carries exactly
	// its two fields).
	TraceID  uint64
	SpanID   uint64
	ParentID uint64

	Start    time.Time
	Duration time.Duration

	Rows     int64 // result or loaded rows
	Rejected int64 // rejected rows (COPY)
	Bytes    int64 // payload bytes moved

	Err string // "" = success
}

// OK reports whether the span completed without error.
func (s Span) OK() bool { return s.Err == "" }

// Root reports whether the span is the root of its trace.
func (s Span) Root() bool { return s.ParentID == 0 }

// SpanContext is the propagatable identity of a span: enough to parent
// children under it from another goroutine or another process. The zero
// value means "no trace".
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context names a real trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 }

// idState drives NewID: a shared counter whose values are scrambled through
// a splitmix64 finalizer, giving unique, random-looking 64-bit IDs with one
// atomic add and no locks. Seeded from the clock so IDs differ across runs.
var idState atomic.Uint64

func init() { idState.Store(uint64(time.Now().UnixNano())) }

// NewID returns a process-unique non-zero identifier for traces and spans.
func NewID() uint64 {
	x := idState.Add(0x9E3779B97F4A7C15) // golden-ratio increment (splitmix64)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		return 1
	}
	return x
}

// Event is one point-in-time occurrence: a connector retry, backoff, breaker
// transition or failover, or a query event the engine raised about a
// statement (IsQueryEvent).
type Event struct {
	Time   time.Time
	Name   string // event taxonomy name, e.g. "retry", "failover", "SLOW_QUERY"
	Node   string // node the event concerns ("" if none)
	Detail string

	// A query event also names the statement that raised it — its trace (0
	// if none) and source text ("" for engine-internal events) — and the
	// measured quantity that triggered it (rows, microseconds: the name
	// defines the unit) with the limit it crossed (0 when unconditional).
	TraceID   uint64
	Query     string
	Value     int64
	Threshold int64
}

// Observer receives completed spans and events. Implementations must be
// safe for concurrent use. The Collector is the production observer; it is
// always wired explicitly (a cluster's own, a source's WithObserver, a
// connector's SetObserver), never carried in a context.
type Observer interface {
	SpanEnd(sp Span)
	Event(ev Event)
}

// enabler lets Start skip span bookkeeping entirely for observers that are
// present but switched off (a disabled Collector).
type enabler interface{ Enabled() bool }

// ActiveSpan is an in-flight span. A nil *ActiveSpan is valid and all its
// methods are no-ops, so call sites need no observer nil-checks.
type ActiveSpan struct {
	o  Observer
	sp Span
}

// Start opens a span against o. It returns nil — a no-op span — when o is
// nil or reports itself disabled, so the only cost on the disabled path is
// this check.
func Start(o Observer, name, node string) *ActiveSpan {
	if o == nil {
		return nil
	}
	if e, ok := o.(enabler); ok && !e.Enabled() {
		return nil
	}
	id := NewID()
	return &ActiveSpan{o: o, sp: Span{Name: name, Node: node, TraceID: id, SpanID: id, Start: time.Now()}}
}

// StartChild opens a span parented under the context's active span (or its
// remotely-propagated SpanContext). With no trace in the context it degrades
// to Start — a fresh root — so call sites need no conditionals.
func StartChild(ctx context.Context, o Observer, name, node string) *ActiveSpan {
	a := Start(o, name, node)
	if a == nil {
		return nil
	}
	if pc := SpanContextFrom(ctx); pc.Valid() {
		a.sp.TraceID = pc.TraceID
		a.sp.ParentID = pc.SpanID
	}
	return a
}

// SpanContext returns the span's propagatable identity (zero on a nil span,
// so an untraced path propagates "no trace").
func (a *ActiveSpan) SpanContext() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: a.sp.TraceID, SpanID: a.sp.SpanID}
}

// SetPeer records the client/executor side of the span.
func (a *ActiveSpan) SetPeer(peer string) {
	if a != nil {
		a.sp.Peer = peer
	}
}

// SetDetail records the span's detail text (SQL, table, phase note).
func (a *ActiveSpan) SetDetail(d string) {
	if a != nil {
		a.sp.Detail = d
	}
}

// AddRows accumulates result/loaded rows.
func (a *ActiveSpan) AddRows(n int64) {
	if a != nil {
		a.sp.Rows += n
	}
}

// AddRejected accumulates rejected rows.
func (a *ActiveSpan) AddRejected(n int64) {
	if a != nil {
		a.sp.Rejected += n
	}
}

// AddBytes accumulates payload bytes.
func (a *ActiveSpan) AddBytes(n int64) {
	if a != nil {
		a.sp.Bytes += n
	}
}

// End closes the span with err (nil = success) and delivers it. Safe to call
// on a nil span.
func (a *ActiveSpan) End(err error) {
	if a == nil {
		return
	}
	a.sp.Duration = time.Since(a.sp.Start)
	if err != nil {
		a.sp.Err = err.Error()
	}
	a.o.SpanEnd(a.sp)
}

type ctxKey int

const (
	peerKey ctxKey = iota
	spanCtxKey
)

// WithPeer names the client-side node of operations under this context (the
// Spark executor in the simulated topology, "driver" for driver work).
func WithPeer(ctx context.Context, peer string) context.Context {
	if peer == "" {
		return ctx
	}
	return context.WithValue(ctx, peerKey, peer)
}

// Peer extracts the context's peer name ("" if none).
func Peer(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	p, _ := ctx.Value(peerKey).(string)
	return p
}

// WithSpan marks a as the context's active span: StartChild calls under the
// returned context parent their spans beneath it. A nil span leaves ctx
// unchanged, so untraced paths compose for free.
func WithSpan(ctx context.Context, a *ActiveSpan) context.Context {
	return WithSpanContext(ctx, a.SpanContext())
}

// WithSpanContext installs a remotely-propagated parent identity — the
// server side of the wire protocol uses this to parent its sessions' spans
// under the remote job. An invalid (zero) context is a no-op.
func WithSpanContext(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey, sc)
}

// SpanContextFrom extracts the context's active trace identity (zero if the
// context carries none).
func SpanContextFrom(ctx context.Context) SpanContext {
	if ctx == nil {
		return SpanContext{}
	}
	sc, _ := ctx.Value(spanCtxKey).(SpanContext)
	return sc
}
