package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"vsfabric/internal/client"
	"vsfabric/internal/obs"
	"vsfabric/internal/vertica"
)

// bg saves typing in tests that don't exercise cancellation.
var bg = context.Background()

// ---------- taxonomy ----------

func TestClassification(t *testing.T) {
	cases := []struct {
		err       error
		transient bool
	}{
		{fmt.Errorf("wrap: %w", vertica.ErrNodeDown), true},
		{fmt.Errorf("wrap: %w", vertica.ErrSessionLimit), true},
		{fmt.Errorf("wrap: %w", ErrConnRefused), true},
		{fmt.Errorf("wrap: %w", ErrConnDropped), true},
		{ErrDeadline, true},
		{io.ErrUnexpectedEOF, true},
		{io.ErrClosedPipe, true},
		{Transient(errors.New("custom glitch")), true},
		{errors.New("vsql: syntax error"), false},
		{Permanent(fmt.Errorf("forced: %w", ErrConnRefused)), false},
		{nil, false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.transient {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.transient)
		}
	}
	if !errors.Is(Transient(errors.New("x")), ErrTransient) {
		t.Error("Transient mark must satisfy errors.Is(_, ErrTransient)")
	}
	if !errors.Is(Permanent(errors.New("x")), ErrPermanent) {
		t.Error("Permanent mark must satisfy errors.Is(_, ErrPermanent)")
	}
	if Classify(errors.New("sql error")) != ErrPermanent || Classify(ErrDeadline) != ErrTransient {
		t.Error("Classify mapped wrong sentinels")
	}
	// The mark must not hide the original chain.
	base := errors.New("root")
	if !errors.Is(Transient(fmt.Errorf("w: %w", base)), base) {
		t.Error("Transient mark must preserve the wrapped chain")
	}
}

// ---------- stub connector ----------

// stubConn is a scriptable client.Conn.
type stubConn struct {
	host    string
	execute func(sql string) (*vertica.Result, error)
	closed  bool
}

func (s *stubConn) Execute(_ context.Context, sql string) (*vertica.Result, error) {
	if s.execute != nil {
		return s.execute(sql)
	}
	return &vertica.Result{}, nil
}
func (s *stubConn) CopyFrom(context.Context, string, io.Reader) (*vertica.Result, error) {
	return &vertica.Result{}, nil
}
func (s *stubConn) Close() { s.closed = true }

// stubConnector scripts per-host connect outcomes.
type stubConnector struct {
	mu sync.Mutex
	// fail[host] is how many upcoming connects to host fail transiently.
	fail map[string]int
	// permanentErr, when set, is returned for every connect.
	permanentErr error
	calls        []string
	execute      func(host, sql string) (*vertica.Result, error)
}

func newStubConnector() *stubConnector { return &stubConnector{fail: map[string]int{}} }

func (s *stubConnector) Connect(_ context.Context, addr string) (client.Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls = append(s.calls, addr)
	if s.permanentErr != nil {
		return nil, s.permanentErr
	}
	if s.fail[addr] > 0 {
		s.fail[addr]--
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, addr)
	}
	conn := &stubConn{host: addr}
	if s.execute != nil {
		host := addr
		conn.execute = func(sql string) (*vertica.Result, error) { return s.execute(host, sql) }
	}
	return conn, nil
}

// fastPolicy keeps test retries snappy and deterministic.
func fastPolicy() Policy {
	return Policy{MaxAttempts: 4, BaseBackoff: time.Millisecond}
}

// fakeSleeper records requested delays without sleeping.
type fakeSleeper struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (f *fakeSleeper) sleep(d time.Duration) {
	f.mu.Lock()
	f.delays = append(f.delays, d)
	f.mu.Unlock()
}

// ---------- ResilientConnector ----------

func TestConnectRetriesWithBackoff(t *testing.T) {
	stub := newStubConnector()
	stub.fail["a"] = 2
	fs := &fakeSleeper{}
	r := NewResilient(stub, nil, fastPolicy())
	r.SetSleep(fs.sleep)
	conn, err := r.Connect(bg, "a")
	if err != nil {
		t.Fatalf("connect should succeed on attempt 3: %v", err)
	}
	conn.Close()
	if len(stub.calls) != 3 {
		t.Fatalf("connect calls = %v, want 3", stub.calls)
	}
	if len(fs.delays) != 2 {
		t.Fatalf("backoff sleeps = %v, want 2", fs.delays)
	}
	// Exponential growth within jitter bounds: attempt 0 ∈ [0.8ms, 1.2ms],
	// attempt 1 ∈ [1.6ms, 2.4ms].
	lo := []time.Duration{800 * time.Microsecond, 1600 * time.Microsecond}
	hi := []time.Duration{1200 * time.Microsecond, 2400 * time.Microsecond}
	for i, d := range fs.delays {
		if d < lo[i] || d > hi[i] {
			t.Errorf("backoff %d = %v, want within [%v, %v]", i, d, lo[i], hi[i])
		}
	}
}

func TestConnectFailsOverAcrossHosts(t *testing.T) {
	stub := newStubConnector()
	stub.fail["a"] = 100 // a stays dark
	r := NewResilient(stub, []string{"a", "b", "c"}, fastPolicy())
	r.SetSleep(func(time.Duration) {})
	conn, err := r.Connect(bg, "a")
	if err != nil {
		t.Fatalf("failover connect: %v", err)
	}
	sc := conn.(*stubConn)
	if sc.host != "b" {
		t.Errorf("failed over to %q, want next-ring host b (buddy location)", sc.host)
	}
}

func TestPermanentErrorNoRetry(t *testing.T) {
	stub := newStubConnector()
	stub.permanentErr = errors.New("bad credentials")
	r := NewResilient(stub, nil, fastPolicy())
	r.SetSleep(func(time.Duration) {})
	if _, err := r.Connect(bg, "a"); !strings.Contains(err.Error(), "bad credentials") {
		t.Fatalf("err = %v", err)
	}
	if len(stub.calls) != 1 {
		t.Fatalf("permanent errors must not retry, got %d attempts", len(stub.calls))
	}
}

func TestBreakerOpensAndCoolsDown(t *testing.T) {
	stub := newStubConnector()
	stub.fail["a"] = 100
	pol := fastPolicy()
	r := NewResilient(stub, []string{"a", "b"}, pol)
	r.SetSleep(func(time.Duration) {})
	base := time.Unix(1000, 0)
	now := base
	r.SetClock(func() time.Time { return now })

	// Each Connect call tries a once then fails over to b, so
	// breakerThreshold calls accumulate the consecutive failures that trip
	// a's breaker.
	for i := 0; i < breakerThreshold; i++ {
		conn, err := r.Connect(bg, "a")
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	if !r.BreakerOpen("a") {
		t.Fatal("a's breaker should be open after consecutive failures")
	}
	stub.mu.Lock()
	stub.calls = nil
	stub.mu.Unlock()
	conn, err := r.Connect(bg, "a")
	if err != nil {
		t.Fatal(err)
	}
	if got := conn.(*stubConn).host; got != "b" {
		t.Errorf("open breaker should divert to b, got %q", got)
	}
	if len(stub.calls) != 1 || stub.calls[0] != "b" {
		t.Errorf("a must not be dialed while its breaker is open: calls=%v", stub.calls)
	}

	// After the cooldown a gets a trial again.
	now = base.Add(breakerCooldown + time.Second)
	stub.mu.Lock()
	stub.fail["a"] = 0
	stub.calls = nil
	stub.mu.Unlock()
	conn2, err := r.Connect(bg, "a")
	if err != nil {
		t.Fatal(err)
	}
	if got := conn2.(*stubConn).host; got != "a" {
		t.Errorf("post-cooldown trial should reach a, got %q", got)
	}
	if r.BreakerOpen("a") {
		t.Error("breaker should re-close after a successful trial")
	}
}

func TestExecuteFailsOverMidScan(t *testing.T) {
	// A node dies after the session is established: the first Execute fails
	// with node-down, and the retry must land on the other host.
	stub := newStubConnector()
	served := make(chan string, 8)
	stub.execute = func(host, sql string) (*vertica.Result, error) {
		if host == "a" {
			return nil, fmt.Errorf("%w: node 0 went down", vertica.ErrNodeDown)
		}
		served <- host
		return &vertica.Result{}, nil
	}
	r := NewResilient(stub, []string{"a", "b"}, fastPolicy())
	r.SetSleep(func(time.Duration) {})
	if _, err := r.Execute(bg, "a", "SELECT 1"); err != nil {
		t.Fatalf("Execute should fail over: %v", err)
	}
	if got := <-served; got != "b" {
		t.Errorf("query served by %q, want b", got)
	}
}

func TestDeadlineConnTimesOut(t *testing.T) {
	release := make(chan struct{})
	stub := newStubConnector()
	stub.execute = func(host, sql string) (*vertica.Result, error) {
		<-release // a wedged server
		return &vertica.Result{}, nil
	}
	pol := fastPolicy()
	pol.OpTimeout = 20 * time.Millisecond
	r := NewResilient(stub, nil, pol)
	r.SetSleep(func(time.Duration) {})
	conn, err := r.Connect(bg, "a")
	if err != nil {
		t.Fatal(err)
	}
	_, err = conn.Execute(bg, "SELECT 1")
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !IsTransient(err) {
		t.Error("deadline errors must classify transient")
	}
	// A timed-out connection is abandoned, not reused.
	if _, err := conn.Execute(bg, "SELECT 1"); !errors.Is(err, ErrConnDropped) {
		t.Errorf("post-timeout use: err = %v, want ErrConnDropped", err)
	}
	close(release) // let the hung op drain and the deferred close run
}

// TestCandidatesCoverEveryHost checks the failover order lists every host
// once, whether or not the requested address is one of them — a user-given
// host spelled differently from the catalog's node address, or the address of
// a node since removed.
func TestCandidatesCoverEveryHost(t *testing.T) {
	r := NewResilient(newStubConnector(), []string{"a", "b", "c"}, fastPolicy())
	for addr, want := range map[string][]string{
		"a": {"a", "b", "c"},
		"b": {"b", "c", "a"},
		"c": {"c", "a", "b"},
		"x": {"x", "a", "b", "c"},
	} {
		if got := r.candidates(addr); !slices.Equal(got, want) {
			t.Errorf("candidates(%q) = %v, want %v", addr, got, want)
		}
	}
	if got := NewResilient(newStubConnector(), nil, fastPolicy()).candidates("x"); !slices.Equal(got, []string{"x"}) {
		t.Errorf("no host set: candidates = %v, want [x]", got)
	}
}

// TestBackoffCapFollowsBase checks the backoff cap scales with the base: a
// retry_backoff_ms of 500 waits 500ms (±jitter) before the second attempt,
// not a fixed 100ms ceiling, and growth stops at backoffCap times the base.
func TestBackoffCapFollowsBase(t *testing.T) {
	stub := newStubConnector()
	stub.fail["a"] = 1
	fs := &fakeSleeper{}
	r := NewResilient(stub, nil, Policy{BaseBackoff: 500 * time.Millisecond})
	r.SetSleep(fs.sleep)
	conn, err := r.Connect(bg, "a")
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if len(fs.delays) != 1 || fs.delays[0] < 400*time.Millisecond || fs.delays[0] > 600*time.Millisecond {
		t.Fatalf("backoff delays = %v, want one within [400ms, 600ms]", fs.delays)
	}
	base := time.Millisecond
	r = NewResilient(stub, nil, Policy{BaseBackoff: base})
	lo := time.Duration(float64(backoffCap*base) * (1 - jitterFrac))
	hi := time.Duration(float64(backoffCap*base) * (1 + jitterFrac))
	for attempt := 6; attempt < 70; attempt += 7 {
		if d := r.backoff(attempt); d < lo || d > hi {
			t.Errorf("backoff(%d) = %v, want within [%v, %v]", attempt, d, lo, hi)
		}
	}
}

// TestBackoffHonoursCancellation checks a job cancelled during a backoff
// stops waiting at once: with a 10s base backoff, cancelling 10ms in returns
// context.Canceled well within a second.
func TestBackoffHonoursCancellation(t *testing.T) {
	stub := newStubConnector()
	stub.fail["a"] = 100
	r := NewResilient(stub, nil, Policy{BaseBackoff: 10 * time.Second})
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	time.AfterFunc(10*time.Millisecond, cancel)
	start := time.Now()
	_, err := r.Connect(ctx, "a")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled connect returned after %v", elapsed)
	}
}

// TestRetryBudgetsAndEvents pins what each entry point of the resilient layer
// spends on a fault script — inner connects, statements run — where the work
// lands, and which recovery events it reports. Hosts are [a b c], the request
// always names a, and the policy allows 4 attempts.
func TestRetryBudgetsAndEvents(t *testing.T) {
	const always = 100
	connect := func(r *ResilientConnector) error {
		conn, err := r.Connect(bg, "a")
		if err == nil {
			conn.Close()
		}
		return err
	}
	execute := func(r *ResilientConnector) error {
		_, err := r.Execute(bg, "a", "SELECT 1")
		return err
	}
	driver := func(stmts int) func(r *ResilientConnector) error {
		return func(r *ResilientConnector) error {
			d := NewDriverConn(r, "a")
			defer d.Close()
			for i := 0; i < stmts; i++ {
				if _, err := d.Execute(bg, "SELECT 1"); err != nil {
					return err
				}
			}
			return nil
		}
	}
	syntaxErr := errors.New("vsql: syntax error")
	cases := []struct {
		name      string
		run       func(*ResilientConnector) error
		refuse    map[string]int // upcoming connects refused, per host
		stmtFail  map[string]int // upcoming statements failing, per host
		stmtErr   error          // what a failing statement returns (default: node down)
		permanent bool           // every connect fails permanently
		connects  int
		stmts     int
		host      string // where the last successful connect or statement landed
		wantErr   bool
		events    map[string]int64 // retry, backoff, failover, conn_failure
	}{
		{name: "connect/clean", run: connect, connects: 1, host: "a"},
		{name: "connect/refused once fails over", run: connect, refuse: map[string]int{"a": 1},
			connects: 2, host: "b", events: map[string]int64{"retry": 1, "backoff": 1, "failover": 1, "conn_failure": 1}},
		{name: "connect/every host refuses", run: connect, refuse: map[string]int{"a": always, "b": always, "c": always},
			connects: 4, wantErr: true, events: map[string]int64{"retry": 3, "backoff": 3, "conn_failure": 4}},
		{name: "connect/permanent", run: connect, permanent: true, connects: 1, wantErr: true},

		{name: "execute/clean", run: execute, connects: 1, stmts: 1, host: "a"},
		{name: "execute/statement fails over", run: execute, stmtFail: map[string]int{"a": always},
			connects: 2, stmts: 2, host: "b", events: map[string]int64{"retry": 1, "backoff": 1}},
		{name: "execute/connect refused once", run: execute, refuse: map[string]int{"a": 1},
			connects: 2, stmts: 1, host: "b", events: map[string]int64{"retry": 1, "backoff": 1, "failover": 1, "conn_failure": 1}},
		{name: "execute/every statement fails", run: execute, stmtFail: map[string]int{"a": always, "b": always, "c": always},
			connects: 4, stmts: 4, wantErr: true, events: map[string]int64{"retry": 3, "backoff": 3}},
		{name: "execute/every connect refused", run: execute, refuse: map[string]int{"a": always, "b": always, "c": always},
			connects: 16, wantErr: true, events: map[string]int64{"retry": 15, "backoff": 15, "conn_failure": 16}},
		{name: "execute/permanent statement", run: execute, stmtFail: map[string]int{"a": 1}, stmtErr: syntaxErr,
			connects: 1, stmts: 1, wantErr: true},

		{name: "driver/clean, connection reused", run: driver(2), connects: 1, stmts: 2, host: "a"},
		{name: "driver/connect refused once", run: driver(1), refuse: map[string]int{"a": 1},
			connects: 2, stmts: 1, host: "b", events: map[string]int64{"retry": 1, "backoff": 1, "failover": 1, "conn_failure": 1}},
		// A node that still accepts connections but fails every statement
		// must not monopolize the driver's retry budget.
		{name: "driver/statement moves to the next host", run: driver(1), stmtFail: map[string]int{"a": always},
			connects: 2, stmts: 2, host: "b", events: map[string]int64{"retry": 1, "backoff": 1}},
		{name: "driver/every statement fails", run: driver(1), stmtFail: map[string]int{"a": always, "b": always, "c": always},
			connects: 4, stmts: 4, wantErr: true, events: map[string]int64{"retry": 3, "backoff": 3}},
		{name: "driver/permanent statement", run: driver(1), stmtFail: map[string]int{"a": 1}, stmtErr: syntaxErr,
			connects: 1, stmts: 1, wantErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stub := newStubConnector()
			for h, n := range c.refuse {
				stub.fail[h] = n
			}
			if c.permanent {
				stub.permanentErr = errors.New("bad credentials")
			}
			stmtErr := c.stmtErr
			if stmtErr == nil {
				stmtErr = vertica.ErrNodeDown
			}
			stmtFail := map[string]int{}
			for h, n := range c.stmtFail {
				stmtFail[h] = n
			}
			stmts, last := 0, ""
			stub.execute = func(host, sql string) (*vertica.Result, error) {
				stmts++
				if stmtFail[host] > 0 {
					stmtFail[host]--
					return nil, fmt.Errorf("%w: on %s", stmtErr, host)
				}
				last = host
				return &vertica.Result{}, nil
			}
			r := NewResilient(stub, []string{"a", "b", "c"}, fastPolicy())
			r.SetSleep(func(time.Duration) {})
			col := obs.NewCollector()
			r.SetObserver(col)

			err := c.run(r)
			if (err != nil) != c.wantErr {
				t.Fatalf("err = %v, want error %v", err, c.wantErr)
			}
			if c.stmts == 0 && len(stub.calls) > 0 && err == nil {
				last = stub.calls[len(stub.calls)-1]
			}
			if len(stub.calls) != c.connects {
				t.Errorf("inner connects = %d %v, want %d", len(stub.calls), stub.calls, c.connects)
			}
			if stmts != c.stmts {
				t.Errorf("statements = %d, want %d", stmts, c.stmts)
			}
			if !c.wantErr && last != c.host {
				t.Errorf("landed on %q, want %q", last, c.host)
			}
			for _, name := range []string{"retry", "backoff", "failover", "conn_failure"} {
				if got := col.Counter(name); got != c.events[name] {
					t.Errorf("%s events = %d, want %d", name, got, c.events[name])
				}
			}
		})
	}
}

// ---------- ChaosConnector against the real engine ----------

func testCluster(t *testing.T, nodes int) *vertica.Cluster {
	t.Helper()
	c, err := vertica.NewCluster(vertica.Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestChaosRefuseConnect(t *testing.T) {
	cl := testCluster(t, 2)
	chaos := NewChaos(client.InProc(cl))
	addr := cl.Node(0).Addr
	chaos.RefuseConnect(addr, 1)
	if _, err := chaos.Connect(bg, addr); !errors.Is(err, ErrConnRefused) || !IsTransient(err) {
		t.Fatalf("first connect: err = %v, want transient ErrConnRefused", err)
	}
	conn, err := chaos.Connect(bg, addr)
	if err != nil {
		t.Fatalf("second connect should pass: %v", err)
	}
	conn.Close()
	if len(chaos.Log()) != 1 {
		t.Errorf("chaos log = %v", chaos.Log())
	}
}

func TestChaosDropOnStatementAbortsTxn(t *testing.T) {
	cl := testCluster(t, 1)
	boot, err := cl.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	boot.MustExecute("CREATE TABLE t (id INTEGER)")
	boot.Close()

	chaos := NewChaos(client.InProc(cl))
	addr := cl.Node(0).Addr
	chaos.DropOnStatement(addr, "INSERT", 1)
	conn, err := chaos.Connect(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Execute(bg, "BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Execute(bg, "INSERT INTO t VALUES (1)"); !errors.Is(err, ErrConnDropped) {
		t.Fatalf("err = %v, want ErrConnDropped", err)
	}
	// The session is dead for good, like a real socket.
	if _, err := conn.Execute(bg, "SELECT COUNT(*) FROM t"); !errors.Is(err, ErrConnDropped) {
		t.Fatalf("post-drop use: err = %v, want ErrConnDropped", err)
	}
	conn.Close()
	// The sever released the session and aborted the open transaction: a
	// fresh session can take a table lock immediately and sees no rows.
	if n := cl.OpenSessions(0); n != 0 {
		t.Errorf("open sessions after drop = %d, want 0", n)
	}
	s, err := cl.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	v, _ := s.MustExecute("SELECT COUNT(*) FROM t").Value()
	if v.I != 0 {
		t.Errorf("dropped statement persisted %d rows", v.I)
	}
}

func TestChaosSeverCopy(t *testing.T) {
	cl := testCluster(t, 2)
	boot, err := cl.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	boot.MustExecute("CREATE TABLE t (id INTEGER, name VARCHAR)")
	boot.Close()

	chaos := NewChaos(client.InProc(cl))
	addr := cl.Node(0).Addr
	chaos.SeverCopyAfter(addr, 8, 1)
	conn, err := chaos.Connect(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	data := "1,alice\n2,bob\n3,carol\n"
	_, err = conn.CopyFrom(bg, "COPY t FROM STDIN FORMAT CSV", strings.NewReader(data))
	if !errors.Is(err, ErrConnDropped) {
		t.Fatalf("err = %v, want ErrConnDropped", err)
	}
	conn.Close()
	s, err := cl.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	v, _ := s.MustExecute("SELECT COUNT(*) FROM t").Value()
	if v.I != 0 {
		t.Errorf("severed COPY persisted %d rows", v.I)
	}
}

func TestChaosLatencyAndLog(t *testing.T) {
	cl := testCluster(t, 1)
	chaos := NewChaos(client.InProc(cl))
	fs := &fakeSleeper{}
	chaos.SetSleep(fs.sleep)
	addr := cl.Node(0).Addr
	chaos.AddLatency(addr, 5*time.Millisecond, 2)
	conn, err := chaos.Connect(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Execute(bg, "SELECT 1"); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if len(fs.delays) != 2 || fs.delays[0] != 5*time.Millisecond {
		t.Errorf("injected delays = %v, want two of 5ms", fs.delays)
	}
}

func TestChaosKillNodeOnStatement(t *testing.T) {
	cl := testCluster(t, 2)
	chaos := NewChaos(client.InProc(cl))
	addr := cl.Node(1).Addr
	chaos.KillNodeOnStatement(addr, "SELECT", cl.Node(1), 1)
	conn, err := chaos.Connect(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Execute(bg, "SELECT 1"); !errors.Is(err, vertica.ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown (node died mid-session)", err)
	}
	if !cl.Node(1).Down() {
		t.Error("victim node should be down")
	}
}

// TestChaosRecoverNodeAtOp pins the heal to an exact operation count: the
// node stays down through every earlier op and is revived — through its full
// recovery path — by the tick of precisely the scheduled op. No sleeps.
func TestChaosRecoverNodeAtOp(t *testing.T) {
	cl := testCluster(t, 2)
	chaos := NewChaos(client.InProc(cl))
	victim := cl.Node(1)
	victim.SetDown(true)
	chaos.RecoverNodeAtOp(victim, 4)
	addr := cl.Node(0).Addr
	conn, err := chaos.Connect(bg, addr) // op 1
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for op := 2; op <= 3; op++ {
		if _, err := conn.Execute(bg, "SELECT 1"); err != nil {
			t.Fatal(err)
		}
		if !victim.Down() {
			t.Fatalf("victim healed at op %d, scheduled for op 4", op)
		}
	}
	if _, err := conn.Execute(bg, "SELECT 1"); err != nil { // op 4: heal
		t.Fatal(err)
	}
	if victim.Down() {
		t.Fatal("victim still down after its scheduled heal op")
	}
	if victim.State() != vertica.NodeUp {
		t.Fatalf("victim state = %v, want UP (recovery ran synchronously)", victim.State())
	}
	found := false
	for _, e := range chaos.Log() {
		if e == "node-heal@op4" {
			found = true
		}
	}
	if !found {
		t.Fatalf("chaos log = %v, want node-heal@op4", chaos.Log())
	}
}

func TestChaosNodeDownWindow(t *testing.T) {
	cl := testCluster(t, 2)
	chaos := NewChaos(client.InProc(cl))
	victim := cl.Node(1)
	chaos.NodeDownWindow(victim, 3, 5)
	addr := cl.Node(0).Addr
	conn, err := chaos.Connect(bg, addr) // op 1
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Execute(bg, "SELECT 1"); err != nil { // op 2
		t.Fatal(err)
	}
	if victim.Down() {
		t.Fatal("window must not open before startOp")
	}
	if _, err := conn.Execute(bg, "SELECT 1"); err != nil { // op 3: window opens
		t.Fatal(err)
	}
	if !victim.Down() {
		t.Fatal("window should be open at op 3")
	}
	if _, err := conn.Execute(bg, "SELECT 1"); err != nil { // op 4
		t.Fatal(err)
	}
	if _, err := conn.Execute(bg, "SELECT 1"); err != nil { // op 5: window closes
		t.Fatal(err)
	}
	if victim.Down() {
		t.Error("window should have closed at op 5")
	}
}
