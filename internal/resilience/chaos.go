package resilience

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"vsfabric/internal/client"
	"vsfabric/internal/vertica"
)

// NodeDowner is the part of vertica.Node the chaos layer needs to crash and
// revive nodes; any cluster substrate exposing it can be chaos-tested.
type NodeDowner interface {
	SetDown(bool)
}

// ChaosConnector wraps a client.Connector and injects scripted database-side
// faults: refused connections, connections dropped before or after a
// statement, COPY streams severed after N bytes, added latency, and
// node-down windows. It is the database-side twin of spark.FailureInjector —
// together they cover both halves of the §3.2.1 fault model: the injector
// kills Spark tasks, the chaos connector kills what they talk to.
//
// Rules are deterministic: each fires a fixed number of times, matched by
// node address and (for statement rules) a SQL substring. A global operation
// counter (one tick per Connect/Execute/CopyFrom) drives node-down windows.
type ChaosConnector struct {
	inner client.Connector
	sleep func(time.Duration)

	mu    sync.Mutex
	rules []*chaosRule
	ops   uint64
	log   []string
}

type chaosKind int

const (
	chaosRefuseConnect chaosKind = iota
	chaosDropBefore
	chaosDropAfter
	chaosSeverCopy
	chaosLatency
	chaosKillNode
	chaosDownWindow
	chaosRecoverAt
)

type chaosRule struct {
	kind      chaosKind
	addr      string // "" = any node
	match     string // SQL substring, "" = any statement
	bytes     int64  // sever-copy threshold
	delay     time.Duration
	node      NodeDowner
	startOp   uint64 // down-window bounds in operation counts
	endOp     uint64
	downed    bool
	revived   bool
	remaining int
}

// NewChaos wraps inner with an empty fault script.
func NewChaos(inner client.Connector) *ChaosConnector {
	return &ChaosConnector{inner: inner, sleep: time.Sleep}
}

// SetSleep replaces the latency-injection sleeper (tests pass a recorder so
// no real time passes).
func (c *ChaosConnector) SetSleep(f func(time.Duration)) { c.sleep = f }

// RefuseConnect makes the next `times` connection attempts to addr ("" = any
// node) fail with ErrConnRefused.
func (c *ChaosConnector) RefuseConnect(addr string, times int) *ChaosConnector {
	return c.add(&chaosRule{kind: chaosRefuseConnect, addr: addr, remaining: times})
}

// DropOnStatement severs the connection when a statement containing match
// arrives: the statement never reaches the node, the session dies (aborting
// any open transaction), and the caller sees ErrConnDropped.
func (c *ChaosConnector) DropOnStatement(addr, match string, times int) *ChaosConnector {
	return c.add(&chaosRule{kind: chaosDropBefore, addr: addr, match: match, remaining: times})
}

// DropAfterStatement lets the matching statement execute, then severs the
// connection before the result reaches the client — the ambiguous-outcome
// drop. Only protocols whose statements are idempotent or guarded (like
// S2V's conditional updates) survive this one.
func (c *ChaosConnector) DropAfterStatement(addr, match string, times int) *ChaosConnector {
	return c.add(&chaosRule{kind: chaosDropAfter, addr: addr, match: match, remaining: times})
}

// SeverCopyAfter cuts the connection after a COPY stream has transferred n
// bytes; the load fails and the session's transaction aborts.
func (c *ChaosConnector) SeverCopyAfter(addr string, n int64, times int) *ChaosConnector {
	return c.add(&chaosRule{kind: chaosSeverCopy, addr: addr, bytes: n, remaining: times})
}

// AddLatency delays the next `times` operations against addr by d.
func (c *ChaosConnector) AddLatency(addr string, d time.Duration, times int) *ChaosConnector {
	return c.add(&chaosRule{kind: chaosLatency, addr: addr, delay: d, remaining: times})
}

// KillNodeOnStatement marks node down the moment a statement containing
// match arrives at addr — the node dies mid-scan, with the session already
// established. The statement then fails with vertica.ErrNodeDown.
func (c *ChaosConnector) KillNodeOnStatement(addr, match string, node NodeDowner, times int) *ChaosConnector {
	return c.add(&chaosRule{kind: chaosKillNode, addr: addr, match: match, node: node, remaining: times})
}

// NodeDownWindow crashes node when the global operation counter reaches
// startOp and revives it at endOp — a bounded outage any retry layer should
// ride out. Reviving goes through the node's full heal path (on a real
// cluster node, synchronous recovery from its buddies), so the post-window
// node serves reads only once caught up.
func (c *ChaosConnector) NodeDownWindow(node NodeDowner, startOp, endOp uint64) *ChaosConnector {
	return c.add(&chaosRule{kind: chaosDownWindow, node: node, startOp: startOp, endOp: endOp, remaining: 1})
}

// RecoverNodeAtOp heals node when the global operation counter reaches op —
// the deterministic companion to KillNodeOnStatement: a test that kills a
// node mid-protocol schedules its exact revival point in operation counts,
// with no sleeps and no racing timers.
func (c *ChaosConnector) RecoverNodeAtOp(node NodeDowner, op uint64) *ChaosConnector {
	return c.add(&chaosRule{kind: chaosRecoverAt, node: node, startOp: op, remaining: 1})
}

func (c *ChaosConnector) add(r *chaosRule) *ChaosConnector {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rules = append(c.rules, r)
	return c
}

// Log returns the injected events, for test assertions.
func (c *ChaosConnector) Log() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.log))
	copy(out, c.log)
	return out
}

// Ops returns the global operation count so far.
func (c *ChaosConnector) Ops() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops
}

// chaosAction is the faults one operation must suffer. down/heal carry node
// state flips decided under the rule mutex but applied outside it: healing a
// real cluster node runs synchronous recovery, which acquires table locks —
// inside the mutex that would deadlock against any concurrent operation
// blocked on its own tick.
type chaosAction struct {
	refuse     bool
	dropBefore bool
	dropAfter  bool
	severAt    int64 // -1 = no severing
	delay      time.Duration
	kill       NodeDowner
	down       []NodeDowner
	heal       []NodeDowner
}

// apply performs the node state flips the tick decided, in down-then-heal
// order. Must be called without holding c.mu.
func (act *chaosAction) apply() {
	for _, n := range act.down {
		n.SetDown(true)
	}
	for _, n := range act.heal {
		n.SetDown(false)
	}
}

// tick advances the operation counter, schedules down-windows and heals, and
// collects the matching rule actions for one operation. The caller applies
// the returned action's node flips after the mutex is released.
func (c *ChaosConnector) tick(kind chaosKind, addr, sql string) chaosAction {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops++
	act := chaosAction{severAt: -1}
	for _, r := range c.rules {
		if r.kind == chaosDownWindow {
			if !r.downed && c.ops >= r.startOp {
				r.downed = true
				act.down = append(act.down, r.node)
				c.log = append(c.log, fmt.Sprintf("node-down@op%d", c.ops))
			}
			if r.downed && !r.revived && c.ops >= r.endOp {
				r.revived = true
				act.heal = append(act.heal, r.node)
				c.log = append(c.log, fmt.Sprintf("node-up@op%d", c.ops))
			}
			continue
		}
		if r.kind == chaosRecoverAt {
			if !r.revived && c.ops >= r.startOp {
				r.revived = true
				act.heal = append(act.heal, r.node)
				c.log = append(c.log, fmt.Sprintf("node-heal@op%d", c.ops))
			}
			continue
		}
		if r.remaining <= 0 || (r.addr != "" && r.addr != addr) {
			continue
		}
		switch r.kind {
		case chaosLatency:
			r.remaining--
			act.delay += r.delay
			c.log = append(c.log, fmt.Sprintf("latency %v %s@op%d", r.delay, addr, c.ops))
		case chaosRefuseConnect:
			if kind != chaosRefuseConnect {
				continue
			}
			r.remaining--
			act.refuse = true
			c.log = append(c.log, fmt.Sprintf("refuse-connect %s@op%d", addr, c.ops))
		case chaosDropBefore, chaosDropAfter, chaosKillNode:
			// Statement rules match anything carrying SQL: plain statements
			// and COPY streams alike (a node can die under either).
			if (kind != chaosDropBefore && kind != chaosSeverCopy) || !strings.Contains(sql, r.match) {
				continue
			}
			r.remaining--
			switch r.kind {
			case chaosDropBefore:
				act.dropBefore = true
				c.log = append(c.log, fmt.Sprintf("drop-before %q %s@op%d", r.match, addr, c.ops))
			case chaosDropAfter:
				act.dropAfter = true
				c.log = append(c.log, fmt.Sprintf("drop-after %q %s@op%d", r.match, addr, c.ops))
			case chaosKillNode:
				act.kill = r.node
				c.log = append(c.log, fmt.Sprintf("kill-node %q %s@op%d", r.match, addr, c.ops))
			}
		case chaosSeverCopy:
			if kind != chaosSeverCopy {
				continue
			}
			r.remaining--
			act.severAt = r.bytes
			c.log = append(c.log, fmt.Sprintf("sever-copy after %dB %s@op%d", r.bytes, addr, c.ops))
		}
	}
	return act
}

// Connect implements client.Connector.
func (c *ChaosConnector) Connect(ctx context.Context, addr string) (client.Conn, error) {
	act := c.tick(chaosRefuseConnect, addr, "")
	act.apply()
	if act.delay > 0 {
		c.sleep(act.delay)
	}
	if act.refuse {
		return nil, fmt.Errorf("%w: node %s", ErrConnRefused, addr)
	}
	conn, err := c.inner.Connect(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &chaosConn{parent: c, addr: addr, inner: conn}, nil
}

// chaosConn is one session subject to the fault script. Once a fault severs
// it, every further operation fails — like a real dead socket.
type chaosConn struct {
	parent *ChaosConnector
	addr   string
	inner  client.Conn
	broken bool
}

// sever kills the session: the server side cleans up (aborting any open
// transaction, as a real server does when the socket dies) and the client
// side becomes permanently unusable.
func (cc *chaosConn) sever() {
	cc.broken = true
	cc.inner.Close()
}

func (cc *chaosConn) dead() error {
	return Transient(fmt.Errorf("%w: session to %s already severed", ErrConnDropped, cc.addr))
}

// Execute implements client.Conn.
func (cc *chaosConn) Execute(ctx context.Context, sql string) (*vertica.Result, error) {
	if cc.broken {
		return nil, cc.dead()
	}
	act := cc.parent.tick(chaosDropBefore, cc.addr, sql)
	act.apply()
	if act.delay > 0 {
		cc.parent.sleep(act.delay)
	}
	if act.kill != nil {
		act.kill.SetDown(true)
	}
	if act.dropBefore {
		cc.sever()
		return nil, Transient(fmt.Errorf("%w: statement never reached %s", ErrConnDropped, cc.addr))
	}
	res, err := cc.inner.Execute(ctx, sql)
	if act.dropAfter {
		cc.sever()
		return nil, Transient(fmt.Errorf("%w: connection to %s severed after statement ran", ErrConnDropped, cc.addr))
	}
	return res, err
}

// CopyFrom implements client.Conn.
func (cc *chaosConn) CopyFrom(ctx context.Context, sql string, r io.Reader) (*vertica.Result, error) {
	if cc.broken {
		return nil, cc.dead()
	}
	act := cc.parent.tick(chaosSeverCopy, cc.addr, sql)
	act.apply()
	if act.delay > 0 {
		cc.parent.sleep(act.delay)
	}
	if act.kill != nil {
		act.kill.SetDown(true)
	}
	if act.dropBefore {
		cc.sever()
		return nil, Transient(fmt.Errorf("%w: COPY never reached %s", ErrConnDropped, cc.addr))
	}
	if act.dropAfter {
		_, _ = cc.inner.CopyFrom(ctx, sql, r)
		cc.sever()
		return nil, Transient(fmt.Errorf("%w: connection to %s severed after COPY ran", ErrConnDropped, cc.addr))
	}
	if act.severAt >= 0 {
		sr := &severedReader{r: r, left: act.severAt}
		_, err := cc.inner.CopyFrom(ctx, sql, sr)
		cc.sever()
		if err == nil {
			// The whole stream fit under the threshold; the sever still kills
			// the session before the client can see the result.
			return nil, Transient(fmt.Errorf("%w: connection to %s severed after COPY", ErrConnDropped, cc.addr))
		}
		return nil, Transient(fmt.Errorf("%w: COPY stream to %s cut after %d bytes", ErrConnDropped, cc.addr, act.severAt))
	}
	return cc.inner.CopyFrom(ctx, sql, r)
}

// Alive reports a severed session dead, and any other as alive as the
// session it wraps.
func (cc *chaosConn) Alive() bool { return !cc.broken && alive(cc.inner) }

// Close implements client.Conn.
func (cc *chaosConn) Close() {
	if !cc.broken {
		cc.inner.Close()
	}
}

// severedReader yields at most `left` bytes, then reports the cut.
type severedReader struct {
	r    io.Reader
	left int64
}

func (s *severedReader) Read(p []byte) (int, error) {
	if s.left <= 0 {
		return 0, fmt.Errorf("%w: COPY stream cut", ErrConnDropped)
	}
	if int64(len(p)) > s.left {
		p = p[:s.left]
	}
	n, err := s.r.Read(p)
	s.left -= int64(n)
	return n, err
}
