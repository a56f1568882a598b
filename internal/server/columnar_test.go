package server

import (
	"fmt"
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
// client — equal the in-process result cell for cell, through both Execute
// and ExecuteStream, from the node that owns a segment and from one that
// gathers it.
func TestColumnarResultOverTCP(t *testing.T) {
	cl, d := startCluster(t, 3)
	local, err := cl.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	scantest.Build(7, func(sql string) { local.MustExecute(sql) }, func() {
		if err := cl.Moveout(); err != nil {
			t.Fatal(err)
		}
	})
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

			var streamed []*storage.Batch
			res, err := conn.(*TCPConn).ExecuteStream(bg, q, func(_ types.Schema, cols []storage.Column, n int) error {
				streamed = append(streamed, &storage.Batch{Cols: cols, Sel: storage.IdentitySel(n)})
				return nil
			})
			if err != nil {
				t.Fatalf("%s (stream): %v", q, err)
			}
			res.Rows = storage.Materialize(streamed)
			exactResults(t, q+" (stream)", res, want)
		}
	}
}

// TestColumnarFramesSpanBatches: a result of several containers, none a
// multiple of the frame size, arrives intact — frames are cut inside batches
// and run on across them.
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
	conn, err := d.Connect(bg, cl.Node(0).Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frames := 0
	if _, err := conn.(*TCPConn).ExecuteStream(bg, "SELECT s, n FROM big WHERE n >= 5", func(_ types.Schema, _ []storage.Column, n int) error {
		if frames++; n > wireBatchRows {
			return fmt.Errorf("frame of %d rows", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := (loads*per - 5 + wireBatchRows - 1) / wireBatchRows; frames != want {
		t.Fatalf("%d rows arrived in %d frames, want %d full frames and a tail", loads*per-5, frames, want)
	}
	got, err := conn.Execute(bg, "SELECT s, n FROM big WHERE n >= 5")
	if err != nil {
		t.Fatal(err)
	}
	exactResults(t, "spanning frames", got, local.MustExecute("SELECT s, n FROM big WHERE n >= 5"))
}
