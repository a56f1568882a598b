package vertica

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"vsfabric/internal/avro"
	"vsfabric/internal/storage"
	"vsfabric/internal/txn"
	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
	"vsfabric/internal/wal"
)

// containerShape is what a container holds and how it was cut: its rows'
// vectors and hashes, its ring span and its zone maps.
type containerShape struct {
	Rows   int
	Hashes []uint32
	Cols   []storage.Column
	Span   vhash.Range
	Stats  []storage.ColStats
}

// storeShapes lists every store of the table (primaries then buddies) as its
// containers, in order.
func storeShapes(t *testing.T, c *Cluster, table string) [][]containerShape {
	t.Helper()
	tbl, ok := c.cat.Table(table)
	if !ok {
		t.Fatalf("no table %s", table)
	}
	var out [][]containerShape
	for _, st := range allStores(tbl) {
		var shapes []containerShape
		for _, ct := range st.Containers() {
			shapes = append(shapes, containerShape{ct.RowCount, ct.Hashes, ct.Cols, ct.HashSpan(), ct.Stats()})
		}
		out = append(out, shapes)
	}
	return out
}

// An Avro COPY routes its decoded blocks into the stores without stringing
// them together first; the stores must end up as if the same rows had
// arrived as one dense batch. Loads of several 4 096-row blocks and a ragged
// last block (and one of smaller blocks) go into a segmented K-safe table —
// per-node shares above and below storage.LocalCutRows — and an unsegmented
// one, each beside a twin written one dense batch at a time: every store
// holds the same containers (rows, order, cut points, hash spans, zone maps),
// each WAL insert record carries the same bytes, live and after a
// kill-and-restart replay.
func TestCopyBlocksRouteLikeOneBatch(t *testing.T) {
	dir := t.TempDir()
	open := func() *Cluster {
		c, err := NewCluster(Config{Nodes: 3, KSafety: 1, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := open()
	s := sess(t, c, 0)
	tables := []string{"seg", "rep"}
	for _, ddl := range []string{"SEGMENTED BY HASH(id) KSAFE 1", "UNSEGMENTED ALL NODES"} {
		s.MustExecute("CREATE TABLE " + tables[0] + " " + loadDDL + " " + ddl)
		s.MustExecute("CREATE TABLE " + tables[0] + "_one " + loadDDL + " " + ddl)
		tables = tables[1:]
	}
	loads := []struct{ rows, blockRows int }{
		{4*4096 + 1234, 4096}, // segmented shares ~5 900 rows: cut at local segments
		{2*4096 + 500, 4096},  // segmented shares ~2 900 rows: one container each
		{2500, 1000},          // every share under the floor, unsegmented too
	}
	for i, ld := range loads {
		rows := loadRows(int64(20+i), ld.rows)
		file := avroFile(t, loadSchema, rows, ld.blockRows)
		for _, table := range []string{"seg", "rep"} {
			res, err := s.CopyFrom("COPY "+table+" FROM STDIN FORMAT AVRO DIRECT", bytes.NewReader(file))
			if err != nil {
				t.Fatal(err)
			}
			if res.Copy.Loaded != int64(len(rows)) {
				t.Fatalf("%s load %d: loaded %d rows, want %d", table, i, res.Copy.Loaded, len(rows))
			}
			one, _ := c.cat.Table(table + "_one")
			if _, err := s.writeStmt(func(tx *txn.Txn) (*Result, error) {
				_, err := s.writeRows(tx, one, rows)
				return &Result{}, err
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	live := make(map[string][][]containerShape)
	for _, table := range []string{"seg", "rep"} {
		got, want := storeShapes(t, c, table), storeShapes(t, c, table+"_one")
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s store %d: the COPY's %d containers differ from the dense batches' %d", table, i, len(got[i]), len(want[i]))
			}
		}
		live[table] = got
	}
	// The loads must reach both sides of the floor: a segmented store cut its
	// first load into local segments and kept its second whole.
	if seg := live["seg"][0]; len(seg) < 3 || seg[0].Rows >= storage.LocalCutRows || seg[len(seg)-2].Rows >= storage.LocalCutRows {
		t.Fatalf("segmented store 0 holds %d containers: the loads did not cover shares above and below the floor", len(seg))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := wal.ReadAll(filepath.Join(dir, "wal-1.log"))
	if err != nil {
		t.Fatal(err)
	}
	payloads := make(map[string][][]byte)
	for _, r := range recs {
		if r.Type == wal.RecInsert {
			payloads[r.Table] = append(payloads[r.Table], r.Rows)
		}
	}
	for _, table := range []string{"seg", "rep"} {
		got, want := payloads[table], payloads[table+"_one"]
		if len(got) != len(loads) || len(want) != len(loads) {
			t.Fatalf("%s: %d and %d insert records, want %d each", table, len(got), len(want), len(loads))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s load %d: the COPY logged %d bytes, the dense batch %d — not byte-identical", table, i, len(got[i]), len(want[i]))
			}
		}
	}

	c = open()
	defer c.Close()
	for _, table := range []string{"seg", "rep"} {
		got, want := storeShapes(t, c, table), storeShapes(t, c, table+"_one")
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, live[table]) {
			t.Errorf("%s after replay: the COPY's containers differ from the dense batches' or from the live ones", table)
		}
	}
}

// The cost of one S2V task's COPY on the server, pinned in bytes: a
// 37 500-row COPY of 1 INTEGER + 10 FLOAT columns (an s2v_save partition's
// shape, raw Avro in 4 096-row blocks) into a durable 2-node table. The
// engine allocates its decoded blocks once, each node's share once and the
// WAL record once; the WAL holds the row block once. A bound is a committed
// constant; the smallest of three loads is checked against it.
func TestCopyAllocatedBytesPerRow(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector changes what allocates")
	}
	const (
		// Measured 609.9 B/row before a load's blocks were routed without
		// being strung together and the WAL frame written from its parts,
		// 326.1 after, 314.9 once a column builder held no NULL flags for a
		// vector without NULLs, and 286.9 once the Avro reader took its
		// block buffer from a process-wide free list (the first of the three
		// loads grows one, the others reuse it); the bound leaves 10 % over
		// the latter.
		maxAllocBytesPerRow = 316
		// Measured 88.0 B/row both before and after: the row block's eight
		// bytes a value, plus the record's framing. The bound leaves 2 %,
		// since the log's bytes are a format.
		maxWALBytesPerRow = 90
		rows              = 37500
	)
	schema := types.NewSchema(types.Column{Name: "id", T: types.Int64})
	ddl := "(id INTEGER"
	for j := 0; j < 10; j++ {
		schema.Cols = append(schema.Cols, types.Column{Name: fmt.Sprintf("c%d", j), T: types.Float64})
		ddl += fmt.Sprintf(", c%d FLOAT", j)
	}
	ddl += ")"
	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	w, err := avro.NewWriter(&buf, avro.FromTypes(schema), avro.CodecNull, 0)
	if err != nil {
		t.Fatal(err)
	}
	row := make(types.Row, len(schema.Cols))
	for i := 0; i < rows; i++ {
		row[0] = types.IntValue(int64(i))
		for j := 1; j < len(row); j++ {
			row[j] = types.FloatValue(rng.NormFloat64())
		}
		if err := w.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()

	c := durableCluster(t, t.TempDir())
	defer c.Close()
	s := sess(t, c, 0)
	walPath := c.curWAL().Path()
	allocs, walBytes := make([]float64, 3), make([]float64, 3)
	for i := range allocs {
		table := fmt.Sprintf("t%d", i)
		s.MustExecute("CREATE TABLE " + table + " " + ddl)
		before, _ := os.Stat(walPath)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := s.CopyFrom("COPY "+table+" FROM STDIN FORMAT AVRO DIRECT", bytes.NewReader(file)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		after, _ := os.Stat(walPath)
		allocs[i] = float64(m1.TotalAlloc-m0.TotalAlloc) / rows
		walBytes[i] = float64(after.Size()-before.Size()) / rows
	}
	t.Logf("allocated %.1f B/row, WAL %.1f B/row (smallest of %v, %v)", slices.Min(allocs), slices.Min(walBytes), allocs, walBytes)
	if got := slices.Min(allocs); got > maxAllocBytesPerRow {
		t.Errorf("a 37 500-row COPY allocates %.1f bytes a row on the server, bound %d", got, maxAllocBytesPerRow)
	}
	if got := slices.Min(walBytes); got > maxWALBytesPerRow {
		t.Errorf("a 37 500-row COPY writes %.1f WAL bytes a row, bound %d", got, maxWALBytesPerRow)
	}
}
