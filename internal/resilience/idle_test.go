package resilience

import (
	"errors"
	"slices"
	"testing"
	"time"

	"vsfabric/internal/vertica"
)

// idlePool is a connector over stub whose DriverConns give sessions back to
// an idle set of their own.
func idlePool(stub *stubConnector, hosts []string, pol Policy) (*ResilientConnector, *IdleSessions) {
	r := NewResilient(stub, hosts, pol)
	r.SetSleep(func(time.Duration) {})
	idle := NewIdleSessions()
	r.SetIdle(idle)
	return r, idle
}

// TestIdleReusesOnlySessionsWhoseStatementsSucceeded: a session goes back to
// the set after statements that all succeeded and is taken by the next
// Connect; one on which a statement erred, even permanently and followed by
// a success, is closed.
func TestIdleReusesOnlySessionsWhoseStatementsSucceeded(t *testing.T) {
	stub := newStubConnector()
	syntaxErr := errors.New("vsql: syntax error")
	stub.execute = func(host, sql string) (*vertica.Result, error) {
		if sql == "bad" {
			return nil, syntaxErr
		}
		return &vertica.Result{}, nil
	}
	r, idle := idlePool(stub, []string{"a", "b"}, fastPolicy())
	for i := 0; i < 3; i++ {
		if _, err := r.Execute(bg, "a", "SELECT 1"); err != nil {
			t.Fatal(err)
		}
	}
	if len(stub.calls) != 1 || idle.Idle("a") != 1 {
		t.Fatalf("3 statements dialed %v and left %d idle, want one dial and one idle session", stub.calls, idle.Idle("a"))
	}
	d := NewDriverConn(r, "a")
	if _, err := d.Execute(bg, "bad"); !errors.Is(err, syntaxErr) {
		t.Fatalf("err = %v, want the syntax error", err)
	}
	if _, err := d.Execute(bg, "SELECT 1"); err != nil {
		t.Fatal(err)
	}
	d.Close()
	if n := idle.Idle("a"); n != 0 {
		t.Fatalf("a session whose statement erred was given back (%d idle)", n)
	}
	if _, err := r.Execute(bg, "a", "SELECT 1"); err != nil {
		t.Fatal(err)
	}
	if len(stub.calls) != 2 {
		t.Fatalf("dials = %v, want a second dial after the erred session closed", stub.calls)
	}
}

// TestIdleNeverReusesAbandonedSession: a statement abandoned at the policy's
// per-operation deadline leaves its session out of the set for good; the
// next statement dials.
func TestIdleNeverReusesAbandonedSession(t *testing.T) {
	release := make(chan struct{})
	stub := newStubConnector()
	stub.execute = func(host, sql string) (*vertica.Result, error) {
		if sql == "slow" {
			<-release
		}
		return &vertica.Result{}, nil
	}
	r, idle := idlePool(stub, nil, Policy{MaxAttempts: 1, BaseBackoff: time.Millisecond, OpTimeout: 20 * time.Millisecond})
	if _, err := r.Execute(bg, "a", "SELECT 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Execute(bg, "a", "slow"); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if n := idle.Idle("a"); n != 0 {
		t.Fatalf("the abandoned session was given back (%d idle)", n)
	}
	close(release)
	if _, err := r.Execute(bg, "a", "SELECT 1"); err != nil {
		t.Fatal(err)
	}
	if len(stub.calls) != 2 || idle.Idle("a") != 1 {
		t.Fatalf("dials = %v with %d idle, want a fresh session dialed and given back", stub.calls, idle.Idle("a"))
	}
}

// TestIdleFiledUnderTheHostItIsOn: a session that failed over from a to b is
// given back under b, where it serves the next request for b and none for a.
func TestIdleFiledUnderTheHostItIsOn(t *testing.T) {
	stub := newStubConnector()
	stub.fail["a"] = 1
	r, idle := idlePool(stub, []string{"a", "b"}, fastPolicy())
	if _, err := r.Execute(bg, "a", "SELECT 1"); err != nil {
		t.Fatal(err)
	}
	if idle.Idle("a") != 0 || idle.Idle("b") != 1 {
		t.Fatalf("idle a=%d b=%d, want the failover session under b", idle.Idle("a"), idle.Idle("b"))
	}
	if _, err := r.Execute(bg, "b", "SELECT 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Execute(bg, "a", "SELECT 1"); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "a"}; !slices.Equal(stub.calls, want) {
		t.Fatalf("dials = %v, want %v", stub.calls, want)
	}
}

// liveConn is a stub session that reports whether it is alive.
type liveConn struct {
	stubConn
	dead bool
}

func (c *liveConn) Alive() bool { return !c.dead }

// TestIdleSetBoundsHealthAndClose: the set keeps MaxIdlePerHost sessions a
// host and closes the rest; take closes the dead sessions it passes;
// SetHosts closes the sessions of hosts that left, and Close the others and
// any given back later.
func TestIdleSetBoundsHealthAndClose(t *testing.T) {
	idle := NewIdleSessions()
	conns := make([]*liveConn, MaxIdlePerHost+2)
	for i := range conns {
		conns[i] = &liveConn{}
		idle.put("a", conns[i])
	}
	if n := idle.Idle("a"); n != MaxIdlePerHost {
		t.Fatalf("%d idle, want the bound %d", n, MaxIdlePerHost)
	}
	for i, c := range conns {
		if c.closed != (i >= MaxIdlePerHost) {
			t.Fatalf("session %d closed = %v", i, c.closed)
		}
	}
	top := conns[MaxIdlePerHost-1]
	top.dead = true
	if got := idle.take("a"); got != conns[MaxIdlePerHost-2] || !top.closed {
		t.Fatalf("take handed out %p (dead one closed: %v), want the alive session under it", got, top.closed)
	}
	idle.put("b", &liveConn{})

	r := NewResilient(newStubConnector(), nil, fastPolicy())
	r.SetIdle(idle)
	r.SetHosts([]string{"b"})
	if idle.Idle("a") != 0 || idle.Idle("b") != 1 {
		t.Fatalf("after SetHosts([b]): idle a=%d b=%d", idle.Idle("a"), idle.Idle("b"))
	}
	for i := 0; i < MaxIdlePerHost-2; i++ {
		if !conns[i].closed {
			t.Fatalf("session %d to a left the layout but stayed open", i)
		}
	}
	idle.Close()
	late := &liveConn{}
	idle.put("b", late)
	if idle.Idle("b") != 0 || !late.closed {
		t.Fatalf("after Close: %d idle, late session closed = %v", idle.Idle("b"), late.closed)
	}
}
