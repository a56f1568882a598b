package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"vsfabric/internal/pool"
	"vsfabric/internal/resilience"
	"vsfabric/internal/storage"
	"vsfabric/internal/vertica"
)

// --- binary codec property tests -----------------------------------------

func TestBinRequestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	randString := func(max int) string {
		b := make([]byte, rng.Intn(max))
		rng.Read(b)
		return string(b)
	}
	for i := 0; i < 500; i++ {
		in := binRequest{
			Tag:      rng.Uint32(),
			TraceID:  rng.Uint64(),
			ParentID: rng.Uint64(),
			Peer:     randString(64),
			SQL:      randString(512),
		}
		out, err := decodeBinRequest(encodeBinRequest(in))
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if out != in {
			t.Fatalf("iteration %d: %+v != %+v", i, out, in)
		}
	}
}

func TestBinDoneRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 500; i++ {
		in := binDone{
			Tag:          rng.Uint32(),
			RowsAffected: int64(rng.Uint32()),
			Epoch:        rng.Uint64(),
		}
		if rng.Intn(2) == 0 {
			cp := &vertica.CopyResult{Loaded: int64(rng.Intn(1e6)), Rejected: int64(rng.Intn(100))}
			for j := rng.Intn(4); j > 0; j-- {
				cp.RejectedSample = append(cp.RejectedSample, fmt.Sprintf("bad row %d", j))
			}
			in.Copy = cp
		}
		out, err := decodeBinDone(encodeBinDone(in))
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if out.Tag != in.Tag || out.RowsAffected != in.RowsAffected || out.Epoch != in.Epoch {
			t.Fatalf("iteration %d: %+v != %+v", i, out, in)
		}
		switch {
		case (out.Copy == nil) != (in.Copy == nil):
			t.Fatalf("iteration %d: copy presence mismatch", i)
		case in.Copy != nil:
			if out.Copy.Loaded != in.Copy.Loaded || out.Copy.Rejected != in.Copy.Rejected ||
				len(out.Copy.RejectedSample) != len(in.Copy.RejectedSample) {
				t.Fatalf("iteration %d: %+v != %+v", i, out.Copy, in.Copy)
			}
		}
	}
}

func TestBinErrorRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	codes := []string{"", "node_down", "pool_queue_timeout", "protocol_error", "made_up"}
	for i := 0; i < 500; i++ {
		in := binError{
			Tag:       rng.Uint32(),
			Transient: rng.Intn(2) == 0,
			Code:      codes[rng.Intn(len(codes))],
			Msg:       fmt.Sprintf("error %d", rng.Uint32()),
		}
		out, err := decodeBinError(encodeBinError(in))
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if out != in {
			t.Fatalf("iteration %d: %+v != %+v", i, out, in)
		}
	}
}

// TestBinCodecRejectsTruncated feeds every prefix of valid frames to the
// decoders: none may panic, and all must fail cleanly with ErrProtocol.
func TestBinCodecRejectsTruncated(t *testing.T) {
	req := encodeBinRequest(binRequest{Tag: 7, TraceID: 9, ParentID: 11, Peer: "exec-1", SQL: "SELECT 1"})
	done := encodeBinDone(binDone{Tag: 7, RowsAffected: 3, Epoch: 12, Copy: &vertica.CopyResult{Loaded: 5, RejectedSample: []string{"x"}}})
	berr := encodeBinError(binError{Tag: 7, Transient: true, Code: "node_down", Msg: "boom"})
	for n := 0; n < len(req); n++ {
		if _, err := decodeBinRequest(req[:n]); !errors.Is(err, ErrProtocol) {
			t.Fatalf("request prefix %d: %v", n, err)
		}
	}
	for n := 0; n < len(done); n++ {
		if _, err := decodeBinDone(done[:n]); !errors.Is(err, ErrProtocol) {
			t.Fatalf("done prefix %d: %v", n, err)
		}
	}
	for n := 0; n < len(berr); n++ {
		if _, err := decodeBinError(berr[:n]); !errors.Is(err, ErrProtocol) {
			t.Fatalf("error prefix %d: %v", n, err)
		}
	}
	// Trailing garbage after a well-formed request must be rejected too:
	// silently ignoring it would mask framing bugs.
	if _, err := decodeBinRequest(append(append([]byte(nil), req...), 0xFF)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("trailing garbage: %v", err)
	}
}

// FuzzBinRequestDecode asserts the request decoder never panics and that
// anything it accepts re-encodes byte-identically (a decoded value is a
// faithful reading, not a lossy one).
func FuzzBinRequestDecode(f *testing.F) {
	f.Add(encodeBinRequest(binRequest{Tag: 1, SQL: "SELECT 1"}))
	f.Add(encodeBinRequest(binRequest{Tag: 2, TraceID: 3, ParentID: 4, Peer: "p", SQL: "COPY t FROM STDIN"}))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeBinRequest(data)
		if err != nil {
			return
		}
		if got := encodeBinRequest(req); !bytes.Equal(got, data) {
			t.Fatalf("re-encode mismatch: %x != %x", got, data)
		}
	})
}

// FuzzBinDoneDecode does the same for the done-frame decoder, whose
// variable-length copy-stats section is the richest part of the codec.
func FuzzBinDoneDecode(f *testing.F) {
	f.Add(encodeBinDone(binDone{Tag: 1, RowsAffected: 10, Epoch: 2}))
	f.Add(encodeBinDone(binDone{Tag: 9, Copy: &vertica.CopyResult{Loaded: 4, Rejected: 1, RejectedSample: []string{"r"}}}))
	f.Add([]byte{0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := decodeBinDone(data)
		if err != nil {
			return
		}
		if got := encodeBinDone(d); !bytes.Equal(got, data) {
			t.Fatalf("re-encode mismatch: %x != %x", got, data)
		}
	})
}

func FuzzBinErrorDecode(f *testing.F) {
	f.Add(encodeBinError(binError{Tag: 1, Code: "node_down", Msg: "m"}))
	f.Add(encodeBinError(binError{Tag: 2, Transient: true, Msg: "boom"}))
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := decodeBinError(data)
		if err != nil {
			return
		}
		if got := encodeBinError(e); !bytes.Equal(got, data) {
			t.Fatalf("re-encode mismatch: %x != %x", got, data)
		}
	})
}

// TestWireCodeRegistry pins the registry round trip for every entry, and
// the precedence that an error chain carrying both node sentinels reports
// the more specific one.
func TestWireCodeRegistry(t *testing.T) {
	for _, wc := range wireCodes {
		if got := sentinelCode(fmt.Errorf("wrapped: %w", wc.err)); got != wc.code {
			t.Errorf("sentinelCode(%v) = %q, want %q", wc.err, got, wc.code)
		}
		if got := sentinelFor(wc.code); got != wc.err {
			t.Errorf("sentinelFor(%q) = %v, want %v", wc.code, got, wc.err)
		}
	}
	if sentinelCode(errors.New("plain")) != "" || sentinelFor("nope") != nil {
		t.Error("unknown errors and codes must map to zero values")
	}
	both := fmt.Errorf("%w: %w", vertica.ErrNodeRemoved, vertica.ErrNodeDown)
	if got := sentinelCode(both); got != "node_removed" {
		t.Errorf("removed+down chain coded %q, want node_removed", got)
	}
}

// --- protocol negotiation -------------------------------------------------

// TestHandshakeRoundTrip runs a small workload through the negotiated
// protocol, including the zero-row schema probe the connector depends on.
func TestHandshakeRoundTrip(t *testing.T) {
	cl := vertica.MustNewCluster(1)
	srv := New(cl, 0)
	ep, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialContext(bg, ep)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, sql := range []string{
		"CREATE TABLE hs (id INTEGER, name VARCHAR)",
		"INSERT INTO hs VALUES (1, 'a'), (2, 'b')",
	} {
		if _, err := c.Execute(bg, sql); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Execute(bg, "SELECT id, name FROM hs ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[1][1].S != "b" {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Zero-row results keep their schema: the connector's schema probe
	// depends on it.
	probe, err := c.Execute(bg, "SELECT * FROM hs WHERE id = 99")
	if err != nil {
		t.Fatal(err)
	}
	if probe.Schema.NumCols() != 2 || len(probe.Rows) != 0 {
		t.Fatalf("probe schema %v rows %v", probe.Schema, probe.Rows)
	}
}

// TestUnsupportedVersionRefused pins the two ways a pre-v2 client can
// announce itself — a hello capped at v1, or a JSON request frame of the
// retired protocol with no handshake at all. Each gets exactly one typed,
// permanent unsupported_version error frame, then EOF.
func TestUnsupportedVersionRefused(t *testing.T) {
	cl := vertica.MustNewCluster(1)
	srv := New(cl, 0)
	ep, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, tc := range []struct {
		name    string
		typ     byte
		payload string
	}{
		{"hello-v1", frameHello, `{"max_version":1}`},
		{"legacy-query", frameLegacyQuery, `{"sql":"SELECT 1"}`},
		{"legacy-copy", frameLegacyCopy, `{"sql":"COPY t FROM STDIN"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := DialContext(bg, ep)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.writeFrame(bg, tc.typ, []byte(tc.payload)); err != nil {
				t.Fatal(err)
			}
			c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			typ, payload, err := readFrame(c.conn)
			if err != nil || typ != frameBinError {
				t.Fatalf("reply frame %q, err %v; want one error frame", typ, err)
			}
			e, err := decodeBinError(payload)
			if err != nil {
				t.Fatal(err)
			}
			if e.Code != "unsupported_version" || e.Transient {
				t.Fatalf("reply = %+v, want permanent unsupported_version", e)
			}
			rerr := remoteError(e.Code, e.Msg, e.Transient)
			if !errors.Is(rerr, ErrUnsupportedVersion) || resilience.IsTransient(rerr) {
				t.Fatalf("client-side error %v: want permanent ErrUnsupportedVersion", rerr)
			}
			if _, _, err := readFrame(c.conn); !errors.Is(err, io.EOF) {
				t.Fatalf("after the refusal: %v, want EOF", err)
			}
		})
	}
}

// --- multi-frame results --------------------------------------------------

// TestExecuteStreamBatches checks a large result crosses a live connection as
// several columnar batch frames, each of the result's shape and at most
// wireBatchRows rows, whose concatenation equals the boxed result Execute
// returns.
func TestExecuteStreamBatches(t *testing.T) {
	cl := vertica.MustNewCluster(1)
	srv := New(cl, 0)
	ep, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialContext(bg, ep)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Execute(bg, "CREATE TABLE big (n INTEGER)"); err != nil {
		t.Fatal(err)
	}
	var ins strings.Builder
	ins.WriteString("INSERT INTO big VALUES (0)")
	const total = 3 * wireBatchRows / 2
	for i := 1; i < total; i++ {
		fmt.Fprintf(&ins, ", (%d)", i)
	}
	if _, err := c.Execute(bg, ins.String()); err != nil {
		t.Fatal(err)
	}

	const q = "SELECT n FROM big"
	want, err := c.Execute(bg, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != total || want.Schema.NumCols() != 1 {
		t.Fatalf("Execute: %d rows × %d cols, want %d × 1", len(want.Rows), want.Schema.NumCols(), total)
	}

	tag, err := c.sendBinRequest(bg, frameBinQuery, q)
	if err != nil {
		t.Fatal(err)
	}
	var batches []*storage.Batch
	got := &vertica.Result{}
	for done := false; !done; {
		typ, payload, err := readFrame(c.conn)
		if err != nil {
			t.Fatal(err)
		}
		if rtag, err := tagOf(payload); err != nil || rtag != tag {
			t.Fatalf("frame %d: tag %d, %v; want %d", len(batches), rtag, err, tag)
		}
		switch typ {
		case frameBatch:
			schema, cols, n, err := storage.DecodeColumns(payload[4:], wireBatchRows)
			if err != nil {
				t.Fatal(err)
			}
			if schema.NumCols() != 1 || len(cols) != 1 || cols[0].Len() != n || n > wireBatchRows {
				t.Fatalf("batch shape: %d cols, %d rows", len(cols), n)
			}
			got.Schema = schema
			batches = append(batches, &storage.Batch{Cols: cols, Sel: storage.IdentitySel(n)})
		case frameDone:
			done = true
		default:
			t.Fatalf("unexpected response frame %q", typ)
		}
	}
	if len(batches) < 2 {
		t.Fatalf("result of %d rows should cross in >1 batch frame, got %d", total, len(batches))
	}
	got.Rows = storage.Materialize(batches)
	exactResults(t, "concatenated frames", got, want)
}

// --- error handling -------------------------------------------------------

// TestPoolSentinelsOverWire checks admission-control refusals keep their
// errors.Is identity and transient classification across the wire.
func TestPoolSentinelsOverWire(t *testing.T) {
	cl := vertica.MustNewCluster(1)
	srv := New(cl, 0)
	ep, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialContext(bg, ep)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, sql := range []string{
		"CREATE TABLE pt (n INTEGER)",
		"INSERT INTO pt VALUES (1)",
		"CREATE RESOURCE POOL tiny MAXCONCURRENCY 1 MAXQUEUEDEPTH NONE QUEUETIMEOUT '5ms'",
		"SET RESOURCE_POOL = tiny",
	} {
		if _, err := c.Execute(bg, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	rel, _, err := mustAdmit(t, cl, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	_, qerr := c.Execute(bg, "SELECT * FROM pt")
	rel()
	if !errors.Is(qerr, pool.ErrQueueTimeout) || !errors.Is(qerr, ErrRemote) {
		t.Fatalf("queue timeout lost identity over wire: %v", qerr)
	}
	if !resilience.IsTransient(qerr) {
		t.Fatalf("queue timeout should be transient over wire: %v", qerr)
	}
	// The session recovers once the pool drains.
	if _, err := c.Execute(bg, "SELECT * FROM pt"); err != nil {
		t.Fatalf("session did not recover after queue timeout: %v", err)
	}
}

// TestMidCopyProtocolErrorAbortsTxn is the regression test for the frame
// desync bug: a malformed frame inside a COPY stream used to leave the
// server parsing copy data as requests, with the client's open transaction
// holding its locks server-side. Now the server rolls the transaction back,
// answers with a typed protocol error, and closes.
func TestMidCopyProtocolErrorAbortsTxn(t *testing.T) {
	cl := vertica.MustNewCluster(1)
	srv := New(cl, 0)
	ep, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialContext(bg, ep)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, sql := range []string{
		"CREATE TABLE ct (n INTEGER, s VARCHAR)",
		"BEGIN",
		"INSERT INTO ct VALUES (1, 'pre')",
	} {
		if _, err := c.Execute(bg, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}

	// Send the copy-begin by hand, then violate the protocol mid-stream: a
	// 'q' frame where only 'D'/'E'/'A' are legal.
	tag, err := c.sendBinRequest(bg, frameBinCopy, "COPY ct FROM STDIN")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.writeFrame(bg, frameCopyData, []byte("2,mid\n")); err != nil {
		t.Fatal(err)
	}
	if err := c.writeFrame(bg, frameBinQuery, encodeBinRequest(binRequest{Tag: 99, SQL: "SELECT 1"})); err != nil {
		t.Fatal(err)
	}
	_, err = c.readBinResponse(bg, tag)
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("mid-copy violation: err = %v, want typed protocol error", err)
	}
	// The server must have closed the connection: re-syncing is impossible.
	c.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := readFrame(c.conn); err == nil {
		t.Fatal("server kept the connection open after a broken COPY stream")
	}

	// The aborted transaction must not leak: a fresh session sees no
	// uncommitted rows and can write immediately (no lock left behind).
	c2, err := DialContext(bg, ep)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	res, err := c2.Execute(bg, "SELECT COUNT(*) FROM ct")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsInt(); got != 0 {
		t.Fatalf("%d rows visible from aborted txn, want 0", got)
	}
	if _, err := c2.Execute(bg, "INSERT INTO ct VALUES (9, 'post')"); err != nil {
		t.Fatalf("aborted txn left the table locked: %v", err)
	}
}

// TestCopyEngineErrorKeepsSession checks the benign sibling of the desync
// case: when the engine rejects a COPY but the client stream is intact, the
// session continues.
func TestCopyEngineErrorKeepsSession(t *testing.T) {
	cl := vertica.MustNewCluster(1)
	srv := New(cl, 0)
	ep, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialContext(bg, ep)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.CopyFrom(bg, "COPY no_such_table FROM STDIN", strings.NewReader("1\n2\n")); err == nil {
		t.Fatal("COPY into a missing table should fail")
	}
	if _, err := c.Execute(bg, "SELECT LAST_EPOCH()"); err != nil {
		t.Fatalf("session should survive a failed COPY: %v", err)
	}
}

// failingReader yields its chunks, then fails (or cancels a context and
// keeps going, for the cancellation flavour of the same test).
type failingReader struct {
	chunks []string
	cancel context.CancelFunc // nil: fail with errSourceBroke instead
}

var errSourceBroke = errors.New("source broke")

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.chunks) == 0 {
		if r.cancel == nil {
			return 0, errSourceBroke
		}
		r.cancel()
		return copy(p, "99,9.5\n"), nil
	}
	n := copy(p, r.chunks[0])
	r.chunks = r.chunks[1:]
	return n, nil
}

// TestCopyAbortOverWire is the TCP mirror of client.TestCopyCancelAbortsTxn
// and the regression test for the partial-load bug: a COPY whose source
// reader fails, or whose context is cancelled mid-stream, used to end the
// stream with a clean 'E' frame, so an autocommit COPY committed whatever
// rows had been sent while the caller got an error. The abort frame makes
// the server fail the statement instead; the connection stays in sync.
func TestCopyAbortOverWire(t *testing.T) {
	cl := vertica.MustNewCluster(1)
	srv := New(cl, 0)
	ep, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialContext(bg, ep)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Execute(bg, "CREATE TABLE ct (id INTEGER, val FLOAT) SEGMENTED BY HASH(id)"); err != nil {
		t.Fatal(err)
	}
	count := func() int64 {
		t.Helper()
		res, err := c.Execute(bg, "SELECT COUNT(*) FROM ct")
		if err != nil {
			t.Fatalf("connection out of sync after aborted COPY: %v", err)
		}
		return res.Rows[0][0].AsInt()
	}
	for _, cancelled := range []bool{false, true} {
		source := func() (context.Context, *failingReader, error) {
			rd := &failingReader{chunks: []string{"1,1.5\n", "2,2.5\n"}}
			if !cancelled {
				return bg, rd, errSourceBroke
			}
			ctx, cancel := context.WithCancel(bg)
			rd.cancel = cancel
			return ctx, rd, context.Canceled
		}

		// Autocommit: the partial stream must leave no rows behind.
		ctx, rd, want := source()
		if _, err := c.CopyFrom(ctx, "COPY ct FROM STDIN FORMAT CSV DIRECT", rd); !errors.Is(err, want) {
			t.Fatalf("cancelled=%v: autocommit COPY err = %v, want %v", cancelled, err, want)
		}
		if got := count(); got != 0 {
			t.Fatalf("cancelled=%v: aborted autocommit COPY committed %d rows, want 0", cancelled, got)
		}

		// Explicit transaction: the abort leaves the txn open for the
		// caller's ROLLBACK, and nothing the load staged survives it.
		if _, err := c.Execute(bg, "BEGIN"); err != nil {
			t.Fatal(err)
		}
		ctx, rd, want = source()
		if _, err := c.CopyFrom(ctx, "COPY ct FROM STDIN FORMAT CSV", rd); !errors.Is(err, want) {
			t.Fatalf("cancelled=%v: in-txn COPY err = %v, want %v", cancelled, err, want)
		}
		if _, err := c.Execute(bg, "ROLLBACK"); err != nil {
			t.Fatalf("cancelled=%v: ROLLBACK after aborted COPY: %v", cancelled, err)
		}
		if got := count(); got != 0 {
			t.Fatalf("cancelled=%v: rolled-back COPY left %d rows, want 0", cancelled, got)
		}
	}
}

func mustAdmit(t *testing.T, cl *vertica.Cluster, name string) (func(), pool.Result, error) {
	t.Helper()
	p, err := cl.Pools().Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return p.Admit(context.Background(), 0)
}
