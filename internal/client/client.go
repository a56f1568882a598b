// Package client defines the database driver contract the connector and the
// baselines program against — the role JDBC plays in the paper. Two
// implementations exist: the in-process connector returned by InProc (used
// by the connector, tests, and benchmarks) and the TCP wire-protocol client
// in package server (used by the vsql shell and the network integration
// tests). Keeping the connector on this interface preserves the paper's
// layering: the connector only ever talks SQL over a connection.
//
// Every operation takes a context.Context: cancellation and deadlines flow
// from the caller down to the engine (aborting in-flight COPY transactions),
// and so does the caller's identity for the engine's spans — peer name
// (obs.WithPeer) and trace parent (obs.WithSpan) — and, for traced work, the
// simulator's task record (sim.WithTask) its statements add cost events to.
package client

import (
	"context"
	"fmt"
	"io"

	"vsfabric/internal/vertica"
)

// Conn is one database session.
type Conn interface {
	// Execute runs one SQL statement.
	Execute(ctx context.Context, sql string) (*vertica.Result, error)
	// CopyFrom runs COPY ... FROM STDIN feeding the statement from r —
	// the VerticaCopyStream bulk-load API (§3.2.2). Cancelling ctx mid-load
	// fails the stream and aborts the load's transaction.
	CopyFrom(ctx context.Context, sql string, r io.Reader) (*vertica.Result, error)
	// Close releases the session, aborting any open transaction.
	Close()
}

// Connector opens sessions by node address.
type Connector interface {
	Connect(ctx context.Context, addr string) (Conn, error)
}

// inproc connects directly to an in-process cluster.
type inproc struct {
	cluster *vertica.Cluster
}

// InProc returns a Connector wired straight into the given cluster; addr
// must be one of the cluster's node addresses.
func InProc(c *vertica.Cluster) Connector { return &inproc{cluster: c} }

// Connect implements Connector.
func (p *inproc) Connect(ctx context.Context, addr string) (Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := p.cluster.ConnectAddr(addr)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	return sessionConn{s}, nil
}

// sessionConn adapts an in-process *vertica.Session to the ctx-first Conn
// contract (the Session keeps its 1-arg convenience methods for direct use).
type sessionConn struct {
	s *vertica.Session
}

func (c sessionConn) Execute(ctx context.Context, sql string) (*vertica.Result, error) {
	return c.s.ExecuteContext(ctx, sql)
}

func (c sessionConn) CopyFrom(ctx context.Context, sql string, r io.Reader) (*vertica.Result, error) {
	return c.s.CopyFromContext(ctx, sql, r)
}

func (c sessionConn) Close() { c.s.Close() }

// Alive reports whether a dial to the session's node would be accepted: not
// when the node is DOWN or REMOVED. The resilient layer asks before it hands
// an idle session out again.
func (c sessionConn) Alive() bool {
	st := c.s.Node().State()
	return st != vertica.NodeDown && st != vertica.NodeRemoved
}

// CopyStream is a push-style writer over a COPY statement, mirroring the
// VerticaCopyStream Java API: create it, Write encoded bytes any number of
// times, then Finish to complete the load and get the result.
type CopyStream struct {
	pw   *io.PipeWriter
	done chan struct{}
	res  *vertica.Result
	err  error
}

// NewCopyStream starts a COPY ... FROM STDIN on the connection and returns
// the stream to feed it. Cancelling ctx aborts the load.
func NewCopyStream(ctx context.Context, conn Conn, sql string) *CopyStream {
	pr, pw := io.Pipe()
	cs := &CopyStream{pw: pw, done: make(chan struct{})}
	go func() {
		defer close(cs.done)
		cs.res, cs.err = conn.CopyFrom(ctx, sql, pr)
		// Unblock any in-flight Write if the server stopped reading early.
		pr.CloseWithError(cs.err)
	}()
	return cs
}

// Write feeds encoded bytes to the load. When the server stops reading early
// the pipe fails with io.ErrClosedPipe; Write waits for the load goroutine to
// finish and surfaces its root cause (the server's actual rejection error)
// instead, so callers never have to guess why the stream closed under them.
func (cs *CopyStream) Write(p []byte) (int, error) {
	n, err := cs.pw.Write(p)
	if err != nil {
		// The read side only closes after CopyFrom returned (just before done
		// closes), so waiting here is deadlock-free and makes cs.err visible.
		<-cs.done
		if cs.err != nil {
			return n, cs.err
		}
	}
	return n, err
}

// Finish signals end of data and waits for the load to complete.
func (cs *CopyStream) Finish() (*vertica.Result, error) {
	_ = cs.pw.Close()
	<-cs.done
	return cs.res, cs.err
}

// Abort cancels the load and returns the load's root-cause error: the
// server-side failure if the load already failed on its own, otherwise the
// server's reaction to the cancellation.
func (cs *CopyStream) Abort(err error) error {
	_ = cs.pw.CloseWithError(err)
	<-cs.done
	return cs.err
}
