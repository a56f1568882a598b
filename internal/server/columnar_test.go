package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vertica"
	"vsfabric/internal/vertica/scantest"
)

// exactResults fails the test unless got equals want cell for cell, value
// kinds, row order and schema included.
func exactResults(t *testing.T, label string, got, want *vertica.Result) {
	t.Helper()
	if d := scantest.Diff(got.Schema, got.Rows, want.Schema, want.Rows); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
}

// TestColumnarResultOverTCP is the wire leg of the columnar result path's
// equivalence suite: internal/vertica proves the in-process result of every
// fixture statement equal to the oracle; here the same statements over TCP —
// gathered into frames from the batches, bulk-decoded and boxed once by the
// client — equal the in-process result cell for cell, from the node that owns
// a segment and from one that gathers it.
func TestColumnarResultOverTCP(t *testing.T) {
	cl, d := startCluster(t, 3)
	local, err := cl.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	scantest.Build(7, func(sql string) { local.MustExecute(sql) })
	for node := 0; node < 2; node++ {
		conn, err := d.Connect(bg, cl.Node(node).Addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for _, q := range scantest.Queries() {
			want := local.MustExecute(q)
			got, err := conn.Execute(bg, q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			exactResults(t, fmt.Sprintf("node %d: %s", node, q), got, want)
		}
	}
}

// batchFrames frames a result's batches the way the server sends them and
// reads the frames back, returning the rows each frame carries and the
// result the frames decode to.
func batchFrames(t *testing.T, schema types.Schema, batches []*storage.Batch) ([]int, *vertica.Result) {
	t.Helper()
	var wire bytes.Buffer
	if encErr, err := sendBatches(&wire, 9, schema, batches); encErr != nil || err != nil {
		t.Fatalf("sendBatches: %v, %v", encErr, err)
	}
	var sizes []int
	var decoded []*storage.Batch
	res := &vertica.Result{}
	for {
		typ, payload, err := readFrame(&wire)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil || typ != frameBatch {
			t.Fatalf("frame %d: type %q, %v", len(sizes), typ, err)
		}
		if tag, err := tagOf(payload); err != nil || tag != 9 {
			t.Fatalf("frame %d: tag %d, %v", len(sizes), tag, err)
		}
		sch, cols, n, err := storage.DecodeColumns(payload[4:], wireBatchRows)
		if err != nil {
			t.Fatalf("frame %d: %v", len(sizes), err)
		}
		res.Schema = sch
		sizes = append(sizes, n)
		decoded = append(decoded, &storage.Batch{Cols: cols, Sel: storage.IdentitySel(n)})
	}
	res.Rows = storage.Materialize(decoded)
	return sizes, res
}

// TestColumnarFramesSpanBatches: a result of several containers, none a
// multiple of the frame size, arrives intact — frames carry at most
// wireBatchRows rows, are cut inside batches and run on across them, and
// decode to the result cell for cell, in process and over TCP.
func TestColumnarFramesSpanBatches(t *testing.T) {
	cl, d := startCluster(t, 1)
	local, err := cl.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	local.MustExecute("CREATE TABLE big (n INTEGER, s VARCHAR)")
	const loads, per = 5, wireBatchRows*2/3 + 7
	for l := 0; l < loads; l++ {
		var csv strings.Builder
		for i := 0; i < per; i++ {
			fmt.Fprintf(&csv, "%d,v%d\n", l*per+i, i%17)
		}
		if _, err := local.CopyFrom("COPY big FROM STDIN FORMAT CSV DIRECT", strings.NewReader(csv.String())); err != nil {
			t.Fatal(err)
		}
	}
	const q = "SELECT s, n FROM big WHERE n >= 5"
	want := local.MustExecute(q)

	res, err := local.ExecuteColumnar(bg, q)
	if err != nil {
		t.Fatal(err)
	}
	// Each load of more than storage.LocalCutRows rows is cut into a
	// container per local segment.
	tbl, _ := cl.Catalog().Table("big")
	if containers := tbl.Stores[0].ContainerCount(); len(res.Batches) != containers || containers <= loads {
		t.Fatalf("result has %d batches, want one per container (%d, more than the %d loads)", len(res.Batches), containers, loads)
	}
	sizes, framed := batchFrames(t, res.Schema, res.Batches)
	for i, n := range sizes {
		if n > wireBatchRows || (i < len(sizes)-1 && n != wireBatchRows) {
			t.Fatalf("frame %d of %d carries %d rows, want full frames of %d and a tail", i, len(sizes), n, wireBatchRows)
		}
	}
	if want := (loads*per - 5 + wireBatchRows - 1) / wireBatchRows; len(sizes) != want {
		t.Fatalf("%d rows arrived in %d frames, want %d full frames and a tail", loads*per-5, len(sizes), want)
	}
	exactResults(t, "decoded frames", framed, want)

	conn, err := d.Connect(bg, cl.Node(0).Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got, err := conn.Execute(bg, q)
	if err != nil {
		t.Fatal(err)
	}
	exactResults(t, "spanning frames", got, want)
}
