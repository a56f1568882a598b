// Package server exposes a cluster node over TCP with a small framed
// protocol, playing the role of Vertica's client port: remote sessions get
// the same SQL surface (including transactions and streamed COPY) as
// in-process ones. The vsql shell and the network integration tests use it;
// the connector can run over it through DialConnector.
//
// Wire format: every message is one frame — a 1-byte type, a 4-byte
// big-endian payload length, and the payload. A connection opens with an
// 'H' hello exchange, then carries binary requests ('q'/'c') tagged for
// pipelining; results stream back as columnar batch frames ('b') followed
// by a done frame ('z'), failures as a typed error frame ('x'). See wire.go
// for the layouts.
package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"vsfabric/internal/obs"
	"vsfabric/internal/resilience"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vertica"
)

// COPY stream frames: untagged, they follow a 'c' request until the stream
// terminates with an end or an abort.
const (
	frameCopyData  = 'D'
	frameCopyEnd   = 'E'
	frameCopyAbort = 'A'
)

// First-frame types of the retired JSON protocol, recognised only to tell
// such a client its version is unsupported.
const (
	frameLegacyQuery = 'Q'
	frameLegacyCopy  = 'C'
)

const maxFrame = 1 << 28

// writeFrame emits one frame with a single Write: header and payload are
// coalesced into one buffer, halving syscalls per frame and leaving no
// partial-write window between the header and its payload.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	buf := make([]byte, 5+len(payload))
	buf[0] = typ
	binary.BigEndian.PutUint32(buf[1:5], uint32(len(payload)))
	copy(buf[5:], payload)
	_, err := w.Write(buf)
	return err
}

func readFrame(r io.Reader) (byte, []byte, error) { return readFrameInto(r, nil) }

// readFrameInto is readFrame reusing buf for the payload when it is large
// enough; the payload is only valid until buf's next use.
func readFrameInto(r io.Reader, buf []byte) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("server: frame of %d bytes exceeds limit", n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// Server serves one cluster node's sessions over TCP.
type Server struct {
	cluster *vertica.Cluster
	nodeID  int

	// closing is done once Close is called: it closes every client
	// connection and cancels the statements running on them.
	closing context.Context
	stop    context.CancelFunc

	mu       sync.Mutex
	listener net.Listener
	wg       sync.WaitGroup
}

var errServerClosed = errors.New("server: closed")

// New creates a server for the given node of the cluster.
func New(cluster *vertica.Cluster, nodeID int) *Server {
	ctx, stop := context.WithCancel(context.Background())
	return &Server{cluster: cluster, nodeID: nodeID, closing: ctx, stop: stop}
}

// Listen starts accepting on addr (e.g. "127.0.0.1:0") and returns the bound
// address. A closed server refuses.
func (s *Server) Listen(addr string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing.Err() != nil {
		return "", errServerClosed
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.listener = l
	s.wg.Add(1)
	go s.acceptLoop(l)
	return l.Addr().String(), nil
}

// Close stops the listener, ends every client connection — each session ends
// as if its client hung up, aborting any open transaction — and waits for
// them to drain.
func (s *Server) Close() {
	s.mu.Lock()
	s.stop()
	if s.listener != nil {
		_ = s.listener.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) acceptLoop(l net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer context.AfterFunc(s.closing, func() { _ = conn.Close() })()
			s.handle(conn)
		}()
	}
}

// handle requires the connection's first frame to be a hello that offers
// protocol v2 or newer. Anything older — a hello capped below v2, or a
// request frame of the retired JSON protocol, which never handshakes — gets
// one typed unsupported-version reply and a close.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	s.cluster.Obs().Add("server.connections", 1)
	typ, payload, err := readFrame(conn)
	if err != nil {
		return
	}
	switch typ {
	case frameHello:
		var h hello
		if err := json.Unmarshal(payload, &h); err != nil {
			return
		}
		if h.MaxVersion < protocolV2 {
			_ = s.sendBinError(conn, 0, fmt.Errorf("%w: client speaks up to v%d, server requires v%d", ErrUnsupportedVersion, h.MaxVersion, protocolV2))
			return
		}
		reply, _ := json.Marshal(hello{Version: protocolV2})
		if err := writeFrame(conn, frameHello, reply); err != nil {
			return
		}
		s.serve(conn)
	case frameLegacyQuery, frameLegacyCopy:
		_ = s.sendBinError(conn, 0, fmt.Errorf("%w: JSON protocol v1 is retired, server requires v%d", ErrUnsupportedVersion, protocolV2))
	default:
		_ = s.sendBinError(conn, 0, fmt.Errorf("%w: unexpected first frame %q", ErrProtocol, typ))
	}
}

// serve runs the binary request loop: requests execute in arrival order
// and every response frame echoes its request's tag, so clients pipeline
// freely and match responses FIFO.
func (s *Server) serve(conn net.Conn) {
	sess, sessErr := s.cluster.Connect(s.nodeID)
	if sess != nil {
		defer sess.Close()
	}
	for {
		typ, payload, err := readFrame(conn)
		if err != nil {
			return // client hung up
		}
		switch typ {
		case frameBinQuery:
			req, err := decodeBinRequest(payload)
			if err != nil {
				// No trustworthy tag to address a reply to: close.
				_ = s.sendBinError(conn, req.Tag, err)
				return
			}
			if sessErr != nil {
				_ = s.sendBinError(conn, req.Tag, sessErr)
				break
			}
			res, err := sess.ExecuteColumnar(s.reqCtx(conn, req), req.SQL)
			if err != nil {
				_ = s.sendBinError(conn, req.Tag, err)
				break
			}
			if err := s.sendBinResult(conn, req.Tag, res); err != nil {
				return
			}
		case frameBinCopy:
			req, err := decodeBinRequest(payload)
			if err != nil {
				_ = s.sendBinError(conn, req.Tag, err)
				return
			}
			if sessErr != nil {
				// The copy stream still owns the connection; without a
				// session to drain into, close rather than desync.
				_ = s.sendBinError(conn, req.Tag, sessErr)
				return
			}
			cr := &copyReader{conn: conn}
			res, err := sess.CopyFromContext(s.reqCtx(conn, req), req.SQL, cr)
			if err != nil {
				if !copyRecoverable(sess, cr) {
					_ = s.sendBinError(conn, req.Tag, fmt.Errorf("%w: COPY stream broken: %v", ErrProtocol, err))
					return
				}
				_ = s.sendBinError(conn, req.Tag, err)
				break
			}
			if err := s.sendBinResult(conn, req.Tag, res); err != nil {
				return
			}
		default:
			_ = s.sendBinError(conn, 0, fmt.Errorf("%w: unexpected frame %q", ErrProtocol, typ))
			return
		}
	}
}

// copyRecoverable restores frame sync after a failed COPY. The engine can
// fail a COPY before consuming the whole client stream; the unread 'D'
// frames would otherwise be parsed as requests — the desync that used to
// leak an open server-side transaction. If the stream is intact the
// remaining frames are drained and the session continues (true). If the
// stream itself broke (malformed frame, torn connection), any open explicit
// transaction is rolled back so its locks and writes don't outlive the
// connection, and the caller must close (false).
func copyRecoverable(sess *vertica.Session, cr *copyReader) bool {
	if !cr.broken {
		if cr.drain() == nil {
			return true
		}
	}
	if sess.InTxn() {
		_, _ = sess.Execute("ROLLBACK")
	}
	return false
}

// reqCtx builds the context one remote request executes under: cancelled
// when the server closes, its span Peer stamped from the wire-carried client
// name or, failing that, the connection's remote address, and any propagated
// trace context parenting the session's spans under the remote job. It
// carries no simulator task record (sim.WithTask): no remote client keeps a
// cost trace, so remote statements do no accounting.
func (s *Server) reqCtx(conn net.Conn, req binRequest) context.Context {
	peer := req.Peer
	if peer == "" {
		peer = conn.RemoteAddr().String()
	}
	ctx := obs.WithPeer(s.closing, peer)
	if req.TraceID != 0 {
		ctx = obs.WithSpanContext(ctx, obs.SpanContext{TraceID: req.TraceID, SpanID: req.ParentID})
	}
	return ctx
}

// copyReader streams 'D' frames until the client ends or aborts the COPY.
type copyReader struct {
	conn net.Conn
	buf  []byte
	// end is set once the stream terminated on a frame boundary: io.EOF
	// after 'E', the client's reason after an abort frame — an error the
	// engine sees mid-load, so it aborts the statement instead of committing
	// the rows that happened to arrive.
	end error
	// broken records a protocol violation mid-stream: the connection can no
	// longer be re-synced to a frame boundary.
	broken bool
}

func (c *copyReader) Read(p []byte) (int, error) {
	for len(c.buf) == 0 {
		if c.end != nil {
			return 0, c.end
		}
		typ, payload, err := readFrame(c.conn)
		if err != nil {
			c.broken = true
			return 0, err
		}
		switch typ {
		case frameCopyData:
			c.buf = payload
		case frameCopyEnd:
			c.end = io.EOF
		case frameCopyAbort:
			c.end = fmt.Errorf("server: COPY aborted by client: %s", payload)
		default:
			c.broken = true
			return 0, fmt.Errorf("%w: unexpected frame %q during COPY", ErrProtocol, typ)
		}
	}
	n := copy(p, c.buf)
	c.buf = c.buf[n:]
	return n, nil
}

// drain consumes the rest of the copy stream up to its terminating frame, so
// the connection is back on a request boundary after an engine-side COPY
// error.
func (c *copyReader) drain() error {
	var sink [4096]byte
	for c.end == nil {
		if _, err := c.Read(sink[:]); err != nil && c.end == nil {
			return err
		}
	}
	return nil
}

// sendBinResult streams one statement's outcome: the result set's columnar
// batch frames, framed straight from the engine's vectors (at least one
// whenever the result carries a schema — zero-row schema probes must arrive
// intact), then the done frame with the scalar outcome.
func (s *Server) sendBinResult(conn net.Conn, tag uint32, res *vertica.Result) error {
	if res.Schema.NumCols() > 0 {
		if encErr, err := sendBatches(conn, tag, res.Schema, res.Batches); err != nil {
			return err
		} else if encErr != nil {
			return s.sendBinError(conn, tag, encErr)
		}
	}
	return writeFrame(conn, frameDone, encodeBinDone(binDone{
		Tag:          tag,
		RowsAffected: res.RowsAffected,
		Epoch:        res.Epoch,
		Copy:         res.Copy,
	}))
}

// sendBatches streams batches as frames of up to wireBatchRows selected rows,
// a frame running on across consecutive batches. Each frame is gathered
// through the selection vectors into one buffer that already holds the frame
// header and tag, and written once; the buffer is reused, so beyond the
// result itself the server holds one frame. encErr reports a result that
// would not encode (the connection is fine); err a failed write.
func sendBatches(w io.Writer, tag uint32, schema types.Schema, batches []*storage.Batch) (encErr, err error) {
	var buf []byte
	var parts []*storage.Batch
	off := 0 // rows of batches[0] already sent
	for {
		parts = parts[:0]
		for room := wireBatchRows; room > 0 && len(batches) > 0; {
			b := batches[0]
			take := min(room, len(b.Sel)-off)
			parts = append(parts, &storage.Batch{Cols: b.Cols, Sel: b.Sel[off : off+take]})
			room -= take
			if off += take; off == len(b.Sel) {
				batches, off = batches[1:], 0
			}
		}
		buf = append(buf[:0], frameBatch, 0, 0, 0, 0)
		buf = binary.BigEndian.AppendUint32(buf, tag)
		if buf, encErr = storage.AppendBatches(buf, schema, parts); encErr != nil {
			return encErr, nil
		}
		binary.BigEndian.PutUint32(buf[1:5], uint32(len(buf)-5))
		if _, err := w.Write(buf); err != nil || len(batches) == 0 {
			return nil, err
		}
	}
}

func (s *Server) sendBinError(conn net.Conn, tag uint32, e error) error {
	return writeFrame(conn, frameBinError, encodeBinError(binError{
		Tag:       tag,
		Transient: resilience.IsTransient(e),
		Code:      sentinelCode(e),
		Msg:       e.Error(),
	}))
}

// ErrRemote wraps errors reported by the server.
var ErrRemote = errors.New("server: remote error")
