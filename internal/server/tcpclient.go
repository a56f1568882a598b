package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"time"

	"vsfabric/internal/client"
	"vsfabric/internal/obs"
	"vsfabric/internal/resilience"
	"vsfabric/internal/storage"
	"vsfabric/internal/vertica"
)

// DefaultDialTimeout bounds connection establishment so a black-holed
// endpoint cannot wedge a client forever.
const DefaultDialTimeout = 10 * time.Second

// TCPConn is a client session over the wire protocol; it implements
// client.Conn so the connector can run against a remote cluster unchanged.
// A TCPConn is not safe for concurrent use: each operation writes its
// request and reads its response before returning. Everything a call needs
// besides the SQL travels in its context: the deadline that bounds its I/O,
// the peer name the server attributes it to (obs.WithPeer), and its trace
// identity.
type TCPConn struct {
	conn net.Conn

	// shook records the lazy handshake done on the first operation. hsErr
	// latches a failed handshake: the connection is in an unknown state and
	// every later call fails.
	shook bool
	hsErr error
	// tag numbers requests; responses echo it.
	tag uint32
}

// DialContext opens a session against a node server. The context bounds
// connection establishment alongside DefaultDialTimeout; each operation is
// bounded by its own context's deadline.
func DialContext(ctx context.Context, addr string) (*TCPConn, error) {
	dialer := net.Dialer{Timeout: DefaultDialTimeout}
	nc, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &TCPConn{conn: nc}, nil
}

// deadline is the I/O deadline for a frame: the context's deadline, or none
// — which also clears a stale one left by an earlier call.
func deadline(ctx context.Context) time.Time {
	dl, _ := ctx.Deadline()
	return dl
}

// armWrite/armRead set the calling operation's I/O deadline before each
// frame, so a server that stops responding surfaces a timeout (classified
// transient) instead of hanging the caller.
func (c *TCPConn) armWrite(ctx context.Context) error {
	return c.conn.SetWriteDeadline(deadline(ctx))
}

func (c *TCPConn) armRead(ctx context.Context) error {
	return c.conn.SetReadDeadline(deadline(ctx))
}

func (c *TCPConn) writeFrame(ctx context.Context, typ byte, payload []byte) error {
	if err := c.armWrite(ctx); err != nil {
		return err
	}
	return writeFrame(c.conn, typ, payload)
}

// handshake negotiates the protocol version lazily, on the connection's
// first operation, under that operation's deadlines — a hung server
// surfaces as a timeout on the first Execute rather than a wedged dial. A
// server that cannot speak v2 refuses with a typed error frame.
func (c *TCPConn) handshake(ctx context.Context) error {
	if c.hsErr != nil || c.shook {
		return c.hsErr
	}
	c.hsErr = func() error {
		payload, err := json.Marshal(hello{MaxVersion: protocolV2})
		if err != nil {
			return err
		}
		if err := c.writeFrame(ctx, frameHello, payload); err != nil {
			return err
		}
		if err := c.armRead(ctx); err != nil {
			return err
		}
		typ, reply, err := readFrame(c.conn)
		if err != nil {
			return err
		}
		switch typ {
		case frameHello:
			var h hello
			if err := json.Unmarshal(reply, &h); err != nil {
				return fmt.Errorf("%w: handshake payload: %v", ErrProtocol, err)
			}
			if h.Version != protocolV2 {
				return fmt.Errorf("%w: server negotiated v%d", ErrUnsupportedVersion, h.Version)
			}
			return nil
		case frameBinError:
			e, err := decodeBinError(reply)
			if err != nil {
				return err
			}
			return remoteError(e.Code, e.Msg, e.Transient)
		default:
			return fmt.Errorf("%w: handshake answered with frame %q", ErrProtocol, typ)
		}
	}()
	c.shook = c.hsErr == nil
	return c.hsErr
}

// nextTag issues the next request tag.
func (c *TCPConn) nextTag() uint32 {
	c.tag++
	return c.tag
}

// sendBinRequest writes one tagged request frame and returns its tag. The
// request is stamped with the context's trace identity and peer name, so the
// span tree a job builds client-side continues uninterrupted on the server.
func (c *TCPConn) sendBinRequest(ctx context.Context, typ byte, sql string) (uint32, error) {
	req := binRequest{Tag: c.nextTag(), Peer: obs.Peer(ctx), SQL: sql}
	if sc := obs.SpanContextFrom(ctx); sc.Valid() {
		req.TraceID, req.ParentID = sc.TraceID, sc.SpanID
	}
	return req.Tag, c.writeFrame(ctx, typ, encodeBinRequest(req))
}

// Execute implements client.Conn.
func (c *TCPConn) Execute(ctx context.Context, sql string) (*vertica.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := c.handshake(ctx); err != nil {
		return nil, err
	}
	tag, err := c.sendBinRequest(ctx, frameBinQuery, sql)
	if err != nil {
		return nil, err
	}
	return c.readBinResponse(ctx, tag)
}

// CopyFrom implements client.Conn: it streams r as COPY data frames. Context
// cancellation is observed between frames. When the context is cancelled or
// r fails, the stream ends with an abort frame so the server fails the COPY
// — never committing the rows that happened to be sent — and the connection
// stays usable.
func (c *TCPConn) CopyFrom(ctx context.Context, sql string, r io.Reader) (*vertica.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := c.handshake(ctx); err != nil {
		return nil, err
	}
	tag, err := c.sendBinRequest(ctx, frameBinCopy, sql)
	if err != nil {
		return nil, err
	}
	abort := func(cause error) (*vertica.Result, error) {
		if c.writeFrame(ctx, frameCopyAbort, []byte(cause.Error())) == nil {
			_, _ = c.readBinResponse(ctx, tag)
		}
		return nil, cause
	}
	buf := make([]byte, 64<<10)
	for {
		if err := ctx.Err(); err != nil {
			return abort(err)
		}
		n, err := r.Read(buf)
		if n > 0 {
			if werr := c.writeFrame(ctx, frameCopyData, buf[:n]); werr != nil {
				return nil, werr
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return abort(err)
		}
	}
	if err := c.writeFrame(ctx, frameCopyEnd, nil); err != nil {
		return nil, err
	}
	return c.readBinResponse(ctx, tag)
}

// Close implements client.Conn.
func (c *TCPConn) Close() { _ = c.conn.Close() }

// remoteError rebuilds a server-reported error client-side: the engine
// sentinel is restored into the chain so errors.Is works across the wire
// exactly as it does in-process, and the server's transient classification
// is re-marked so remote retry decisions match local ones.
func remoteError(code, msg string, transient bool) error {
	var rerr error
	if sent := sentinelFor(code); sent != nil {
		rerr = fmt.Errorf("%w: %w: %s", ErrRemote, sent, msg)
	} else {
		rerr = fmt.Errorf("%w: %s", ErrRemote, msg)
	}
	if transient {
		return resilience.Transient(rerr)
	}
	return rerr
}

// readBinResponse reads one tagged response: zero or more batch frames
// then a done or error frame. Responses arrive in request order, so a
// mismatched tag means the stream lost sync — a protocol error, not a
// recoverable condition. Every frame is read into one reused buffer, and each
// batch is decoded out of it into column vectors of their own (an INTEGER or
// FLOAT column is one copy of its chunk), which the next frame's read cannot
// touch. They are boxed into the returned Result's rows all at once when the
// done frame arrives — the one boxing this side of the wire, a cache-sized
// slab at a time (storage.Materialize).
func (c *TCPConn) readBinResponse(ctx context.Context, tag uint32) (*vertica.Result, error) {
	res := &vertica.Result{}
	var batches []*storage.Batch
	var buf []byte // every frame's payload: decoding copies out of it, never aliases it
	for {
		if err := c.armRead(ctx); err != nil {
			return nil, err
		}
		typ, payload, err := readFrameInto(c.conn, buf)
		if err != nil {
			return nil, err
		}
		buf = payload
		rtag, err := tagOf(payload)
		if err != nil {
			return nil, err
		}
		if rtag != tag {
			return nil, fmt.Errorf("%w: response tag %d, want %d", ErrProtocol, rtag, tag)
		}
		switch typ {
		case frameBatch:
			schema, cols, n, err := storage.DecodeColumns(payload[4:], wireBatchRows)
			if err != nil {
				return nil, fmt.Errorf("%w: batch payload: %v", ErrProtocol, err)
			}
			res.Schema = schema
			if n > 0 {
				batches = append(batches, &storage.Batch{Cols: cols, Sel: storage.IdentitySel(n)})
			}
		case frameDone:
			d, err := decodeBinDone(payload)
			if err != nil {
				return nil, err
			}
			res.Batches = batches
			res.Materialize()
			res.RowsAffected = d.RowsAffected
			res.Epoch = d.Epoch
			res.Copy = d.Copy
			return res, nil
		case frameBinError:
			e, err := decodeBinError(payload)
			if err != nil {
				return nil, err
			}
			return nil, remoteError(e.Code, e.Msg, e.Transient)
		default:
			return nil, fmt.Errorf("%w: unexpected response frame %q", ErrProtocol, typ)
		}
	}
}

// DialConnector is a client.Connector over TCP: it maps the cluster node
// addresses (as reported by v_catalog.nodes) to the TCP endpoints their
// servers listen on.
type DialConnector struct {
	// Endpoints maps node address → "host:port".
	Endpoints map[string]string
}

// Connect implements client.Connector.
func (d *DialConnector) Connect(ctx context.Context, addr string) (client.Conn, error) {
	ep, ok := d.Endpoints[addr]
	if !ok {
		// Allow dialing a raw endpoint directly.
		ep = addr
	}
	return DialContext(ctx, ep)
}
