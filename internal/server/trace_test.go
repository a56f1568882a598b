package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vsfabric/internal/core"
	"vsfabric/internal/obs"
	"vsfabric/internal/spark"
	"vsfabric/internal/types"
)

// TestFrameCodecRoundTripProperty drives the codec with randomized frame
// types and payload sizes (including empty payloads) and checks every frame
// survives a write/read round trip byte-for-byte, alone and back-to-back on
// one stream.
func TestFrameCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 2, 4, 5, 64<<10 - 1, 64 << 10}
	var stream bytes.Buffer
	type frame struct {
		typ     byte
		payload []byte
	}
	var written []frame
	for i := 0; i < 200; i++ {
		var n int
		if i < len(sizes) {
			n = sizes[i]
		} else {
			n = rng.Intn(1 << 12)
		}
		payload := make([]byte, n)
		rng.Read(payload)
		typ := byte(rng.Intn(256))
		// Round trip the frame alone.
		var one bytes.Buffer
		if err := writeFrame(&one, typ, payload); err != nil {
			t.Fatal(err)
		}
		if one.Len() != 5+n {
			t.Fatalf("frame of %d bytes encoded to %d, want %d", n, one.Len(), 5+n)
		}
		gotTyp, gotPayload, err := readFrame(&one)
		if err != nil {
			t.Fatalf("frame %d (type %d, %d bytes): %v", i, typ, n, err)
		}
		if gotTyp != typ || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("frame %d did not round trip (type %d→%d, %d→%d bytes)",
				i, typ, gotTyp, n, len(gotPayload))
		}
		// And queue it on the shared stream.
		if err := writeFrame(&stream, typ, payload); err != nil {
			t.Fatal(err)
		}
		written = append(written, frame{typ, payload})
	}
	// All frames must come back off the shared stream in order.
	for i, w := range written {
		typ, payload, err := readFrame(&stream)
		if err != nil {
			t.Fatalf("stream frame %d: %v", i, err)
		}
		if typ != w.typ || !bytes.Equal(payload, w.payload) {
			t.Fatalf("stream frame %d corrupted", i)
		}
	}
	if stream.Len() != 0 {
		t.Fatalf("%d trailing bytes after draining the stream", stream.Len())
	}
}

// TestReadFrameRejectsOversized: a header advertising more than maxFrame
// bytes is rejected before any payload allocation.
func TestReadFrameRejectsOversized(t *testing.T) {
	hdr := []byte{frameBinQuery, 0xFF, 0xFF, 0xFF, 0xFF} // ~4GiB claim
	if _, _, err := readFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversized frame header should be rejected")
	}
	// Exactly at the limit is still accepted (header-wise); the truncated
	// body surfaces as an I/O error, not the limit error.
	var at [5]byte
	at[0] = frameBinQuery
	binary.BigEndian.PutUint32(at[1:], uint32(maxFrame))
	_, _, err := readFrame(bytes.NewReader(at[:]))
	if err == nil || strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("frame at exactly maxFrame should pass the limit check, got %v", err)
	}
}

// writeCounter counts Write calls so the test can pin the coalesced-frame
// contract: one frame, one Write.
type writeCounter struct {
	bytes.Buffer
	calls int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.calls++
	return w.Buffer.Write(p)
}

func TestWriteFrameSingleWrite(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte("ab"), 4096)} {
		var w writeCounter
		if err := writeFrame(&w, frameDone, payload); err != nil {
			t.Fatal(err)
		}
		if w.calls != 1 {
			t.Fatalf("writeFrame used %d Write calls for %d bytes, want 1", w.calls, len(payload))
		}
		typ, got, err := readFrame(&w.Buffer)
		if err != nil || typ != frameDone || !bytes.Equal(got, payload) {
			t.Fatalf("coalesced frame did not round trip: %v", err)
		}
	}
}

// TestDistributedTraceOverTCP is the end-to-end acceptance path: an S2V job
// through DialConnector against TCP-served nodes must come out the other side
// as ONE distributed trace — a single s2v.job root whose phase spans and
// remote engine spans all share its TraceID with intact parent links — with
// populated latency histograms and an exportable Chrome trace.
func TestDistributedTraceOverTCP(t *testing.T) {
	cl, d := startCluster(t, 4)
	sc := spark.NewContext(spark.Conf{NumExecutors: 2, CoresPerExecutor: 4})
	src := core.NewDefaultSource(d).WithObserver(cl.Obs())
	spark.RegisterSource("vertica-traced", src)
	cl.Obs().Reset()

	schema := types.NewSchema(
		types.Column{Name: "id", T: types.Int64},
		types.Column{Name: "val", T: types.Float64},
	)
	rows := make([]types.Row, 300)
	for i := range rows {
		rows[i] = types.Row{types.IntValue(int64(i)), types.FloatValue(float64(i))}
	}
	df := spark.CreateDataFrame(sc, schema, rows, 4)
	opts := map[string]string{"host": cl.Node(0).Addr, "table": "traced_t", "numPartitions": "6", "jobname": "traced_job"}
	if err := df.Write().Format("vertica-traced").Options(opts).Mode(spark.SaveOverwrite).Save(); err != nil {
		t.Fatal(err)
	}

	spans := cl.Obs().Spans()
	byID := make(map[uint64]obs.Span, len(spans))
	var roots []obs.Span
	for _, sp := range spans {
		byID[sp.SpanID] = sp
		if sp.Root() {
			roots = append(roots, sp)
		}
	}
	if len(roots) != 1 || roots[0].Name != "s2v.job" {
		t.Fatalf("roots = %+v, want exactly one s2v.job root", roots)
	}
	root := roots[0]
	if !root.OK() {
		t.Fatalf("root span failed: %+v", root)
	}

	engineNodes := map[string]bool{}
	var copied int64
	for _, sp := range spans {
		// Every span of the job — driver phases and remote engine work alike —
		// belongs to the one trace.
		if sp.TraceID != root.TraceID {
			t.Fatalf("span %q on trace %#x, want %#x: %+v", sp.Name, sp.TraceID, root.TraceID, sp)
		}
		if sp.Root() {
			continue
		}
		parent, ok := byID[sp.ParentID]
		if !ok {
			t.Fatalf("span %q has dangling parent %#x", sp.Name, sp.ParentID)
		}
		if parent.TraceID != sp.TraceID {
			t.Fatalf("span %q parented across traces", sp.Name)
		}
		switch sp.Name {
		case "execute", "copy":
			engineNodes[sp.Node] = true
			// Engine spans were opened on the far side of a TCP connection;
			// their parent must be a connector-side span and their peer the
			// wire-carried executor (or driver) name, not a socket address.
			if !strings.HasPrefix(parent.Name, "s2v.") {
				t.Fatalf("engine span %q parented under %q, want an s2v span", sp.Name, parent.Name)
			}
			if sp.Peer == "" || strings.Contains(sp.Peer, ":") {
				t.Fatalf("engine span peer %q, want the wire-carried client name", sp.Peer)
			}
			if sp.Name == "copy" {
				copied += sp.Rows
			}
		}
	}
	if len(engineNodes) < 2 {
		t.Fatalf("engine spans touched %d nodes, want >= 2 (got %v)", len(engineNodes), engineNodes)
	}
	if copied != 300 {
		t.Fatalf("copy spans loaded %d rows, want 300", copied)
	}

	// The SQL surface: one job_traces row rolling the whole trace up.
	sess, err := cl.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Execute("SELECT trace_id, job_type, span_count, node_count, db_rows, success FROM v_monitor.job_traces")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("job_traces has %d rows, want 1: %v", len(res.Rows), res.Rows)
	}
	row := res.Rows[0]
	if row[0].S != fmt.Sprintf("%016x", root.TraceID) {
		t.Fatalf("job_traces trace_id = %q, want %016x", row[0].S, root.TraceID)
	}
	if row[1].S != "s2v.job" || row[2].I != int64(len(spans)) || row[3].I < 2 {
		t.Fatalf("job_traces rollup wrong: %v", row)
	}
	if row[4].I < 300 || !row[5].B {
		t.Fatalf("job_traces db_rows/success wrong: %v", row)
	}

	// Latency histograms for the engine operations carry non-zero
	// percentiles.
	res, err = sess.Execute("SELECT operation, sample_count, p50_us, p95_us, p99_us FROM v_monitor.latency_histograms")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range res.Rows {
		seen[r[0].S] = true
		if r[0].S != "execute" && r[0].S != "copy" {
			continue
		}
		if r[1].I == 0 || r[2].F <= 0 || r[3].F <= 0 || r[4].F <= 0 {
			t.Fatalf("histogram row for %q has zero stats: %v", r[0].S, r)
		}
	}
	if !seen["execute"] || !seen["copy"] {
		t.Fatalf("latency_histograms missing engine operations: %v", seen)
	}

	// The trace exports as loadable Chrome trace-event JSON.
	var buf bytes.Buffer
	if err := cl.Obs().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) <= len(spans) {
		t.Fatalf("chrome trace has %d events for %d spans (metadata missing?)", len(doc.TraceEvents), len(spans))
	}
}

// TestUntracedRequestsStandAlone: requests sent outside any job context carry
// no trace fields and the server opens fresh roots for them, with the peer
// falling back to the socket address.
func TestUntracedRequestsStandAlone(t *testing.T) {
	cl, d := startCluster(t, 2)
	cl.Obs().Reset()
	conn, err := d.Connect(bg, cl.Node(0).Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Execute(bg, "CREATE TABLE lone (id INTEGER)"); err != nil {
		t.Fatal(err)
	}
	spans := cl.Obs().Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if !sp.Root() || sp.TraceID != sp.SpanID {
		t.Fatalf("untraced request should open a root span: %+v", sp)
	}
	if !strings.Contains(sp.Peer, ":") {
		t.Fatalf("peer should fall back to the socket address, got %q", sp.Peer)
	}
}
