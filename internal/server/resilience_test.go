package server

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"vsfabric/internal/resilience"
	"vsfabric/internal/vertica"
)

var bg = context.Background()

// TestOpTimeoutAgainstHungServer points a client at a black-hole endpoint —
// it accepts connections but never answers — and checks that the call's
// context deadline surfaces a transient timeout instead of hanging the caller.
func TestOpTimeoutAgainstHungServer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close() // hold the conn open, never respond
		}
	}()

	d := &DialConnector{Endpoints: map[string]string{"hung": l.Addr().String()}}
	conn, err := d.Connect(bg, "hung")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(bg, 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = conn.Execute(ctx, "SELECT 1")
	if err == nil {
		t.Fatal("execute against a hung server must time out")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("err = %v, want a net timeout", err)
	}
	if !resilience.IsTransient(err) {
		t.Fatalf("timeout must classify transient for retry: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timed out only after %v — deadline not effective", elapsed)
	}
}

// TestTransientFlagOverWire checks the classification round-trip: a
// node-down error (transient) and an unknown-table error (permanent) must
// keep their retryability after being flattened to text on the wire.
func TestTransientFlagOverWire(t *testing.T) {
	cl, err := vertica.NewCluster(vertica.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(cl, 0)
	ep, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	d := &DialConnector{Endpoints: map[string]string{cl.Node(0).Addr: ep}}

	conn, err := d.Connect(bg, cl.Node(0).Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Execute(bg, "CREATE TABLE tw (id INTEGER)"); err != nil {
		t.Fatal(err)
	}

	// Take the node down mid-session: the statement fails server-side with
	// the transient ErrNodeDown, and the wire protocol must deliver it
	// transient so the resilient layer retries it.
	cl.Node(0).SetDown(true)
	_, err = conn.Execute(bg, "SELECT COUNT(*) FROM tw")
	if err == nil {
		t.Fatal("statement on a down node should fail")
	}
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote in chain", err)
	}
	if !strings.Contains(err.Error(), "node down") {
		t.Fatalf("err = %v, want the server root cause in the message", err)
	}
	if !resilience.IsTransient(err) {
		t.Fatalf("node-down error must stay transient over the wire: %v", err)
	}

	// The session survives: bring the node back and the same connection works.
	cl.Node(0).SetDown(false)
	if _, err := conn.Execute(bg, "SELECT COUNT(*) FROM tw"); err != nil {
		t.Fatalf("session should recover once the node is back: %v", err)
	}

	// Control: a permanent error must NOT pick up the transient mark.
	_, err = conn.Execute(bg, "SELECT * FROM missing")
	if err == nil {
		t.Fatal("unknown table should error")
	}
	if resilience.IsTransient(err) {
		t.Fatalf("unknown-table error must stay permanent over the wire: %v", err)
	}
}

// TestResilientFailoverOverTCP runs the resilient connector on top of real
// sockets: the first node's endpoint is a closed port (connection refused),
// and Connect must fail over to the live server on the second node.
func TestResilientFailoverOverTCP(t *testing.T) {
	cl, err := vertica.NewCluster(vertica.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(cl, 1)
	ep, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	// Reserve a port, then close it, so node 0's endpoint refuses connects.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadEP := dead.Addr().String()
	dead.Close()

	d := &DialConnector{Endpoints: map[string]string{
		cl.Node(0).Addr: deadEP,
		cl.Node(1).Addr: ep,
	}}
	pol := resilience.DefaultPolicy()
	pol.BaseBackoff = time.Millisecond
	r := resilience.NewResilient(d, []string{cl.Node(0).Addr, cl.Node(1).Addr}, pol)
	conn, err := r.Connect(bg, cl.Node(0).Addr)
	if err != nil {
		t.Fatalf("connect should fail over to the live node: %v", err)
	}
	defer conn.Close()
	res, err := conn.Execute(bg, "SELECT LAST_EPOCH()")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}
