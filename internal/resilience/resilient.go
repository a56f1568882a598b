package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"time"

	"vsfabric/internal/client"
	"vsfabric/internal/obs"
	"vsfabric/internal/sim"
	"vsfabric/internal/vertica"
)

// Policy bounds how hard the resilient layer tries before giving up. Each
// field is what one connector option key sets; the zero value means "use the
// defaults" everywhere.
type Policy struct {
	// MaxAttempts is the total attempts per connect and per statement,
	// counting the first (retry_attempts). Default 4.
	MaxAttempts int
	// BaseBackoff is the delay before the second attempt; it doubles per
	// attempt up to backoffCap times itself (retry_backoff_ms). Default 2ms
	// (the substrate is in-process; real deployments raise it).
	BaseBackoff time.Duration
	// OpTimeout is the per-operation deadline applied to every Execute and
	// CopyFrom on connections this layer hands out; 0 disables it
	// (op_timeout_ms). It travels as a context deadline layered under the
	// caller's own context, which is also how it reaches a TCP socket.
	OpTimeout time.Duration
}

// The fixed parts of the retry schedule.
const (
	// backoffCap bounds the exponential growth at this multiple of
	// BaseBackoff: 100ms at the 2ms default.
	backoffCap = 50
	// jitterFrac spreads each backoff uniformly over ±jitterFrac of itself so
	// synchronized retries de-correlate.
	jitterFrac = 0.2
	// jitterSeed seeds the jitter source, keeping retry schedules
	// reproducible.
	jitterSeed = 1
	// breakerThreshold consecutive connect failures open a node's circuit
	// breaker.
	breakerThreshold = 3
	// breakerCooldown is how long an open breaker diverts traffic away from
	// a node before a trial connection is allowed again.
	breakerCooldown = 250 * time.Millisecond
)

// DefaultPolicy returns the defaults spelled out on Policy.
func DefaultPolicy() Policy { return Policy{}.withDefaults() }

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 2 * time.Millisecond
	}
	return p
}

// breakerState is one node's circuit breaker: consecutive connect failures
// trip it open; while open, candidate selection routes around the node until
// the cooldown passes, then one trial attempt half-opens it.
type breakerState struct {
	consecutive int
	openUntil   time.Time
}

// ResilientConnector is a client.Connector that recovers from transient
// faults: connection attempts retry with exponential backoff + jitter and
// fail over across the cluster's node addresses, per-node circuit breakers
// keep retries away from nodes that just failed, and handed-out connections
// enforce the policy's per-operation deadline. Permanent errors (SQL errors,
// schema mismatches) pass through untouched on the first attempt.
//
// Every recovery action (retry, backoff, breaker transition, failover)
// emits an obs.Event to the connector's observer (SetObserver) — this is the
// event stream behind v_monitor.resilience_events.
type ResilientConnector struct {
	inner client.Connector
	pol   Policy
	sleep func(time.Duration) // nil: wait on a timer, cancellable by ctx
	now   func() time.Time

	// idle, when set, lends sessions that DriverConns gave back (SetIdle).
	idle *IdleSessions

	mu       sync.Mutex
	obsv     obs.Observer
	hosts    []string
	rng      *rand.Rand
	breakers map[string]*breakerState
}

// NewResilient wraps inner. hosts is the failover set (typically the
// cluster's node addresses, discoverable only after a first connection — see
// SetHosts); nil means "retry the requested address only".
func NewResilient(inner client.Connector, hosts []string, pol Policy) *ResilientConnector {
	pol = pol.withDefaults()
	return &ResilientConnector{
		inner:    inner,
		pol:      pol,
		now:      time.Now,
		hosts:    append([]string(nil), hosts...),
		rng:      rand.New(rand.NewSource(jitterSeed)),
		breakers: make(map[string]*breakerState),
	}
}

// SetSleep and SetClock replace the timing sources (tests use fakes so no
// real time passes). A replaced sleep cannot be cut short by cancellation;
// the next attempt still sees the cancelled context and stops.
func (r *ResilientConnector) SetSleep(f func(time.Duration)) { r.sleep = f }
func (r *ResilientConnector) SetClock(f func() time.Time)    { r.now = f }

// SetObserver attaches an observer that receives every resilience event this
// connector emits, regardless of operation context. Wire the cluster's
// collector (vertica.Cluster.Obs) here to surface the events in
// v_monitor.resilience_events.
func (r *ResilientConnector) SetObserver(o obs.Observer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.obsv = o
}

func (r *ResilientConnector) observer() obs.Observer {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.obsv
}

// emit delivers a resilience event to the connector observer.
func (r *ResilientConnector) emit(ev obs.Event) {
	if o := r.observer(); o != nil {
		o.Event(ev)
	}
}

// SetIdle makes the connector reuse sessions: Connect first takes an alive
// session idle under the requested host, and a DriverConn whose statements
// all succeeded gives its session back on Close. Only autocommit sessions that
// carry no session state (no transaction, epoch pin, resource pool or temp
// table) may go through such a connector. Call it before first use.
func (r *ResilientConnector) SetIdle(s *IdleSessions) { r.idle = s }

// SetHosts installs the failover set once the cluster layout is known, and
// closes the idle sessions to hosts that left it.
func (r *ResilientConnector) SetHosts(hosts []string) {
	r.mu.Lock()
	r.hosts = append(r.hosts[:0], hosts...)
	r.mu.Unlock()
	r.idle.retain(hosts)
}

// candidates returns the failover order for a requested address: the address
// itself, then every other host cyclically from its position — so node i's
// traffic fails over to node i+1 first, which is where its buddy projection
// lives (buddy r of segment i is on node i+r+1 mod n). An address outside the
// host set is followed by the whole set in order.
func (r *ResilientConnector) candidates(addr string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := []string{addr}
	n := len(r.hosts)
	at := slices.Index(r.hosts, addr)
	for i := 1; i <= n; i++ {
		if h := r.hosts[(at+i)%n]; h != addr {
			out = append(out, h)
		}
	}
	return out
}

// pick chooses the attempt's host: the preferred rotation position unless its
// breaker is open, in which case the first closed-breaker candidate wins; if
// every breaker is open, the rotation position is used anyway (a trial).
func (r *ResilientConnector) pick(cands []string, attempt int) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	for i := 0; i < len(cands); i++ {
		h := cands[(attempt+i)%len(cands)]
		b := r.breakers[h]
		if b == nil || now.After(b.openUntil) || now.Equal(b.openUntil) {
			return h
		}
	}
	return cands[attempt%len(cands)]
}

// noteFailure counts a connect failure and reports whether it tripped the
// host's breaker open.
func (r *ResilientConnector) noteFailure(host string) (opened bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.breakers[host]
	if b == nil {
		b = &breakerState{}
		r.breakers[host] = b
	}
	b.consecutive++
	if b.consecutive >= breakerThreshold {
		wasOpen := r.now().Before(b.openUntil)
		b.openUntil = r.now().Add(breakerCooldown)
		return !wasOpen
	}
	return false
}

// noteSuccess resets the host's breaker and reports whether a tripped
// breaker closed.
func (r *ResilientConnector) noteSuccess(host string) (closed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b := r.breakers[host]; b != nil {
		closed = b.consecutive >= breakerThreshold
		b.consecutive = 0
		b.openUntil = time.Time{}
	}
	return closed
}

// BreakerOpen reports whether host's breaker is currently open (for tests
// and observability).
func (r *ResilientConnector) BreakerOpen(host string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.breakers[host]
	return b != nil && r.now().Before(b.openUntil)
}

// backoff computes the jittered delay before attempt+1.
func (r *ResilientConnector) backoff(attempt int) time.Duration {
	limit := backoffCap * r.pol.BaseBackoff
	d := r.pol.BaseBackoff
	for i := 0; i < attempt && d < limit; i++ {
		d *= 2
	}
	d = min(d, limit)
	r.mu.Lock()
	f := 1 - jitterFrac + 2*jitterFrac*r.rng.Float64()
	r.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// wait blocks for d, returning early if ctx is done.
func (r *ResilientConnector) wait(ctx context.Context, d time.Duration) {
	if r.sleep != nil {
		r.sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Attempts is the one retry loop: it runs op up to MaxAttempts times, with a
// retry event and a jittered, cancellable backoff before every attempt after
// the first. A nil or permanent error ends the loop as it is; a cancelled
// context ends it with ctx.Err(); running out of attempts wraps the last
// transient error. what names the operation in events and the final error;
// addr is the address it was asked of.
func (r *ResilientConnector) Attempts(ctx context.Context, addr, what string, op func(attempt int) error) error {
	var err error
	for attempt := 0; attempt < r.pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			r.emit(obs.Event{Name: "retry", Node: addr, Detail: fmt.Sprintf("%s attempt %d", what, attempt+1)})
			d := r.backoff(attempt - 1)
			r.emit(obs.Event{Name: "backoff", Node: addr, Detail: d.String()})
			r.wait(ctx, d)
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if err = op(attempt); !IsTransient(err) {
			return err
		}
	}
	return fmt.Errorf("resilience: %s to %s failed after %d attempts: %w", what, addr, r.pol.MaxAttempts, err)
}

// Connect implements client.Connector: it returns a session to addr, taken
// from the idle set when it holds an alive one (SetIdle), and otherwise
// dialed, failing over across the host set with backoff on transient errors.
// The returned connection enforces the policy's per-operation deadline.
func (r *ResilientConnector) Connect(ctx context.Context, addr string) (client.Conn, error) {
	conn, _, err := r.session(ctx, addr)
	if err != nil {
		return nil, err
	}
	return r.bound(conn), nil
}

// session returns a session to addr and the host it is on: an idle one, or
// a dial. Breakers, failover events and the performance model's cost stay
// with real dials: each successful dial adds one FixedConnect cost event to
// the context's task record (sim.TaskFrom), and a reused session adds none.
func (r *ResilientConnector) session(ctx context.Context, addr string) (client.Conn, string, error) {
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}
	if c := r.idle.take(addr); c != nil {
		return c, addr, nil
	}
	cands := r.candidates(addr)
	var conn client.Conn
	var on string
	err := r.Attempts(ctx, addr, "connect", func(attempt int) error {
		host := r.pick(cands, attempt)
		c, err := r.inner.Connect(ctx, host)
		if err != nil {
			if IsTransient(err) {
				r.emit(obs.Event{Name: "conn_failure", Node: host, Detail: err.Error()})
				if r.noteFailure(host) {
					r.emit(obs.Event{Name: "breaker_open", Node: host})
				}
			}
			return err
		}
		if r.noteSuccess(host) {
			r.emit(obs.Event{Name: "breaker_close", Node: host})
		}
		if host != addr {
			r.emit(obs.Event{Name: "failover", Node: host, Detail: "requested " + addr})
		}
		conn, on = c, host
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	sim.TaskFrom(ctx).Fixed(sim.FixedConnect)
	return conn, on, nil
}

// bound applies the policy's per-operation deadline to a session.
func (r *ResilientConnector) bound(conn client.Conn) client.Conn {
	if r.pol.OpTimeout > 0 {
		return &deadlineConn{inner: conn, d: r.pol.OpTimeout}
	}
	return conn
}

// Execute runs one statement on a DriverConn of its own: a session (idle or
// dialed, with failover), the statement, and Close — the whole pair retried
// on transient failures, so a node dying after the session was established
// (mid-scan) still fails over. With an idle set the session is given back
// when the statement succeeded. Use only for idempotent statements (reads,
// conditional updates): a connection dropped mid-statement leaves the outcome
// unknown, and this helper will run the statement again.
func (r *ResilientConnector) Execute(ctx context.Context, addr, sql string) (*vertica.Result, error) {
	d := NewDriverConn(r, addr)
	defer d.Close()
	return d.Execute(ctx, sql)
}

// deadlineConn bounds every operation on a connection by a deadline, layered
// as a context deadline under the caller's own context. A timed-out
// operation abandons the connection: the caller gets ErrDeadline at the
// deadline, and the underlying session is closed (aborting its transaction)
// as soon as the hung operation eventually drains — sessions are not safe for
// concurrent use, so the close must not race the in-flight call.
type deadlineConn struct {
	inner client.Conn
	d     time.Duration
	hung  bool
}

type opResult struct {
	res *vertica.Result
	err error
}

func (c *deadlineConn) call(ctx context.Context, op func(context.Context) (*vertica.Result, error)) (*vertica.Result, error) {
	if c.hung {
		return nil, Transient(fmt.Errorf("%w: connection abandoned after earlier timeout", ErrConnDropped))
	}
	ctx, cancel := context.WithTimeout(ctx, c.d)
	defer cancel()
	ch := make(chan opResult, 1)
	go func() {
		res, err := op(ctx)
		ch <- opResult{res, err}
	}()
	select {
	case out := <-ch:
		return out.res, out.err
	case <-ctx.Done():
		// The in-flight operation may be stuck inside the substrate (which
		// cannot always observe cancellation mid-call); abandon the
		// connection and close it once the call drains.
		c.hung = true
		go func() {
			<-ch
			c.inner.Close()
		}()
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, Transient(fmt.Errorf("operation exceeded %v: %w", c.d, ErrDeadline))
		}
		return nil, ctx.Err()
	}
}

func (c *deadlineConn) Execute(ctx context.Context, sql string) (*vertica.Result, error) {
	return c.call(ctx, func(ctx context.Context) (*vertica.Result, error) { return c.inner.Execute(ctx, sql) })
}

func (c *deadlineConn) CopyFrom(ctx context.Context, sql string, rd io.Reader) (*vertica.Result, error) {
	return c.call(ctx, func(ctx context.Context) (*vertica.Result, error) { return c.inner.CopyFrom(ctx, sql, rd) })
}

func (c *deadlineConn) Close() {
	if !c.hung {
		c.inner.Close()
	}
}

// DriverConn is a self-healing client.Conn for driver-side control work: when
// a statement fails because the connection died before it ran (refused,
// dropped between statements, node-down), the session is re-established —
// failing over to another host — and the statement retried. It carries no
// session state across reconnects, so it must not be used for multi-statement
// transactions; the S2V driver's statements are all autocommit and either
// idempotent or guarded by conditional updates, which is exactly the contract
// this type needs. Over a connector with an idle set, Close gives the session
// back, filed under the host it is on, if every statement on it succeeded.
type DriverConn struct {
	pool *ResilientConnector
	addr string
	conn client.Conn // the session as handed out: deadline-bounded
	raw  client.Conn // the session under conn, what the idle set keeps
	host string      // the host raw is on
	// failed records a statement on the session that erred, or was abandoned
	// at its deadline: such a session is never given back.
	failed bool
}

// NewDriverConn returns a driver connection over the pool; the first
// statement connects lazily.
func NewDriverConn(pool *ResilientConnector, addr string) *DriverConn {
	return &DriverConn{pool: pool, addr: addr}
}

// ensure returns the open session, connecting to host if there is none.
func (d *DriverConn) ensure(ctx context.Context, host string) (client.Conn, error) {
	if d.conn == nil {
		raw, on, err := d.pool.session(ctx, host)
		if err != nil {
			return nil, err
		}
		d.raw, d.host, d.conn, d.failed = raw, on, d.pool.bound(raw), false
	}
	return d.conn, nil
}

// release ends the session: back to the idle set when keep is set, the pool
// has one and no statement on it failed; closed otherwise.
func (d *DriverConn) release(keep bool) {
	if d.conn == nil {
		return
	}
	if keep && !d.failed && d.pool.idle != nil {
		d.pool.idle.put(d.host, d.raw)
	} else {
		d.conn.Close()
	}
	d.conn, d.raw = nil, nil
}

// note records a statement's outcome: any error keeps the session out of the
// idle set, and a transient one ends it so the retry reconnects.
func (d *DriverConn) note(err error) {
	if err == nil {
		return
	}
	d.failed = true
	if IsTransient(err) {
		d.release(false)
	}
}

// Execute implements client.Conn. A statement runs on the session the last
// one left open; after a transient failure the session is dropped and the
// retry connects to the next host in the failover order, one host per
// attempt, so a node that accepts connections but keeps failing statements
// (dying mid-scan) cannot monopolize the retry budget.
func (d *DriverConn) Execute(ctx context.Context, sql string) (*vertica.Result, error) {
	cands := d.pool.candidates(d.addr)
	var res *vertica.Result
	err := d.pool.Attempts(ctx, d.addr, "statement", func(attempt int) error {
		conn, err := d.ensure(ctx, cands[attempt%len(cands)])
		if err != nil {
			return err
		}
		res, err = conn.Execute(ctx, sql)
		d.note(err)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// CopyFrom implements client.Conn. The data stream is not replayable, so only
// the connection is established resiliently; a mid-copy fault surfaces to the
// caller.
func (d *DriverConn) CopyFrom(ctx context.Context, sql string, rd io.Reader) (*vertica.Result, error) {
	conn, err := d.ensure(ctx, d.addr)
	if err != nil {
		return nil, err
	}
	res, err := conn.CopyFrom(ctx, sql, rd)
	d.note(err)
	return res, err
}

// Close implements client.Conn.
func (d *DriverConn) Close() { d.release(true) }
