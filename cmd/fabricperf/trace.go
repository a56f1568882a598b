package main

import (
	"context"
	"io"

	"vsfabric/internal/client"
	"vsfabric/internal/perf"
	"vsfabric/internal/vertica"
)

// tracedConnector wraps the TCP dialer for traced windows: it records a
// span around every dial and every statement or COPY as the client sees it.
// The client span travels over the wire as the parent of the engine's own
// span, so client span minus engine span — its self time — is what the wire
// costs: request frame, result encode, loopback, decode, boxing.
//
// The protocol handshake is lazy (first operation on a connection), so it
// is part of that operation's client span, not of server.dial.
type tracedConnector struct {
	inner client.Connector
	tr    *perf.Tracer
}

func (c tracedConnector) Connect(ctx context.Context, addr string) (client.Conn, error) {
	_, sp := c.tr.Start(ctx, "server.dial")
	conn, err := c.inner.Connect(ctx, addr)
	sp.End(err)
	if err != nil {
		return nil, err
	}
	return tracedConn{inner: conn, tr: c.tr}, nil
}

type tracedConn struct {
	inner client.Conn
	tr    *perf.Tracer
}

func (c tracedConn) Execute(ctx context.Context, sql string) (*vertica.Result, error) {
	ctx, sp := c.tr.Start(ctx, "client.execute")
	res, err := c.inner.Execute(ctx, sql)
	sp.End(err)
	return res, err
}

func (c tracedConn) CopyFrom(ctx context.Context, sql string, r io.Reader) (*vertica.Result, error) {
	ctx, sp := c.tr.Start(ctx, "client.copy")
	res, err := c.inner.CopyFrom(ctx, sql, r)
	sp.End(err)
	return res, err
}

func (c tracedConn) Close() { c.inner.Close() }
