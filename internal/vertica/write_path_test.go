package vertica

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vsfabric/internal/avro"
	"vsfabric/internal/catalog"
	"vsfabric/internal/storage"
	"vsfabric/internal/txn"
	"vsfabric/internal/types"
	"vsfabric/internal/wal"
)

var loadSchema = types.NewSchema(
	types.Column{Name: "id", T: types.Int64},
	types.Column{Name: "grp", T: types.Int64},
	types.Column{Name: "x", T: types.Float64},
	types.Column{Name: "name", T: types.Varchar},
	types.Column{Name: "ok", T: types.Bool},
)

// loadRows is n rows of loadSchema: grp runs long enough to be stored RLE,
// name repeats enough to be logged as a dictionary, and every nullable shape
// (NULLs in each kind, empty strings) appears.
func loadRows(seed int64, n int) []types.Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]types.Row, n)
	for i := range rows {
		r := types.Row{
			types.IntValue(rng.Int63n(1 << 40)),
			types.IntValue(int64(i / 97)),
			types.FloatValue(rng.NormFloat64()),
			types.StringValue(fmt.Sprintf("name-%d", rng.Intn(7))),
			types.BoolValue(rng.Intn(2) == 0),
		}
		switch rng.Intn(8) {
		case 0:
			r[2] = types.NullValue(types.Float64)
		case 1:
			r[3] = types.NullValue(types.Varchar)
		case 2:
			r[3] = types.StringValue("")
			r[4] = types.NullValue(types.Bool)
		}
		rows[i] = r
	}
	return rows
}

func avroFile(t testing.TB, schema types.Schema, rows []types.Row, blockRows int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := avro.NewWriter(&buf, avro.FromTypes(schema), avro.CodecDeflate, blockRows)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

const loadDDL = "(id INTEGER, grp INTEGER, x FLOAT, name VARCHAR, ok BOOLEAN)"

// checkStoresMatchOracle compares every store of the table with what the
// row-at-a-time write path would have built from rows in one direct load:
// one container per target, the same rows in the same order, the same
// hashes, column encodings, zone maps and (empty) delete vector.
func checkStoresMatchOracle(t *testing.T, c *Cluster, table string, rows []types.Row) []byte {
	t.Helper()
	tbl, ok := c.cat.Table(table)
	if !ok {
		t.Fatalf("no table %s", table)
	}
	want, payload := oracleWriteRows(t, tbl, rows)
	for i, st := range allStores(tbl) {
		w, isTarget := want[st]
		got := st.Containers()
		if !isTarget {
			if len(got) != 0 {
				t.Errorf("%s store %d: %d containers, the row path writes none", table, i, len(got))
			}
			continue
		}
		if len(got) != 1 {
			t.Fatalf("%s store %d: %d containers, want one per statement", table, i, len(got))
		}
		ct := got[0]
		if ct.RowCount != len(w.rows) || !reflect.DeepEqual(ct.Hashes, w.hashes) {
			t.Errorf("%s store %d: %d rows, hashes equal=%v; want %d rows", table, i, ct.RowCount, reflect.DeepEqual(ct.Hashes, w.hashes), len(w.rows))
		}
		for j := range w.cols {
			if !reflect.DeepEqual(ct.Cols[j], w.cols[j]) {
				t.Errorf("%s store %d column %d: stored as %T, row path stores %T (or the values differ)", table, i, j, ct.Cols[j], w.cols[j])
			}
		}
		if !reflect.DeepEqual(ct.Stats(), w.stats) {
			t.Errorf("%s store %d: zone maps %+v, want %+v", table, i, ct.Stats(), w.stats)
		}
		start, del := ct.Committed(nil)
		if start >= storage.ProvisionalBase || del != nil {
			t.Fatalf("%s store %d: container at %d with delete marks %v, want committed rows all live", table, i, start, del)
		}
		vrows := storage.Materialize([]*storage.Batch{{Cols: ct.Cols, Sel: storage.IdentitySel(ct.RowCount)}})
		if len(vrows) != len(w.rows) {
			t.Fatalf("%s store %d: %d committed rows, want %d", table, i, len(vrows), len(w.rows))
		}
		for k, row := range vrows {
			if ct.Hashes[k] != w.hashes[k] || !reflect.DeepEqual(row, w.rows[k]) {
				t.Fatalf("%s store %d row %d: %v hash %d, want %v with hash %d", table, i, k, row, ct.Hashes[k], w.rows[k], w.hashes[k])
			}
		}
	}
	return payload
}

// The vector write entry against the row-at-a-time path it replaced, for a
// segmented K-safe table and an unsegmented one, fed by COPY ... AVRO DIRECT:
// same containers in every store, and a WAL insert record byte-identical to
// storage.EncodeRows of the rows. Then kill and restart: replay routes the
// logged vectors to the same stores.
func TestVectorWritePathMatchesRowPath(t *testing.T) {
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
	s.MustExecute("CREATE TABLE seg " + loadDDL + " SEGMENTED BY HASH(id) KSAFE 1")
	s.MustExecute("CREATE TABLE rep " + loadDDL + " UNSEGMENTED ALL NODES")
	rows := loadRows(3, 1000)
	payloads := make(map[string][]byte)
	for _, table := range []string{"seg", "rep"} {
		res, err := s.CopyFrom("COPY "+table+" FROM STDIN FORMAT AVRO DIRECT", bytes.NewReader(avroFile(t, loadSchema, rows, 128)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Copy.Loaded != int64(len(rows)) {
			t.Fatalf("%s: loaded %d rows, want %d", table, res.Copy.Loaded, len(rows))
		}
		payloads[table] = checkStoresMatchOracle(t, c, table, rows)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := wal.ReadAll(filepath.Join(dir, "wal-1.log"))
	if err != nil {
		t.Fatal(err)
	}
	logged := 0
	for _, r := range recs {
		if r.Type != wal.RecInsert {
			continue
		}
		logged++
		if !bytes.Equal(r.Rows, payloads[r.Table]) {
			t.Errorf("insert record for %s: %d payload bytes, storage.EncodeRows gives %d — not byte-identical",
				r.Table, len(r.Rows), len(payloads[r.Table]))
		}
	}
	if logged != 2 {
		t.Fatalf("%d insert records in the WAL, want one per COPY", logged)
	}

	c = open()
	defer c.Close()
	for _, table := range []string{"seg", "rep"} {
		checkStoresMatchOracle(t, c, table, rows)
	}
}

// Row sources cross the same entry: a multi-row INSERT, a CSV COPY and an
// UPDATE's re-insert leave what they always left (checked through SQL), and
// a trickle INSERT's WAL record is still storage.EncodeRows of its rows.
func TestRowSourcesCrossTheVectorEntry(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, dir)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER, v FLOAT, name VARCHAR) SEGMENTED BY HASH(id)")
	s.MustExecute("INSERT INTO t VALUES (1, 1.5, 'a'), (2, NULL, ''), (3, 3, NULL)")
	if _, err := s.CopyFrom("COPY t FROM STDIN FORMAT CSV", strings.NewReader("4,4.5,d\n5,,e\n")); err != nil {
		t.Fatal(err)
	}
	s.MustExecute("UPDATE t SET v = 9 WHERE id = 2")
	want := []string{"1|1.5|a", "2|9|", "3|3|NULL", "4|4.5|d", "5|NULL|e"}
	if got := dumpTable(s, "t"); !sameRows(got, want) {
		t.Errorf("table = %v, want %v", got, want)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := wal.ReadAll(filepath.Join(dir, "wal-1.log"))
	if err != nil {
		t.Fatal(err)
	}
	schema := types.NewSchema(types.Column{Name: "id", T: types.Int64}, types.Column{Name: "v", T: types.Float64}, types.Column{Name: "name", T: types.Varchar})
	first, _ := storage.EncodeRows(schema, []types.Row{
		{types.IntValue(1), types.FloatValue(1.5), types.StringValue("a")},
		{types.IntValue(2), types.NullValue(types.Float64), types.StringValue("")},
		{types.IntValue(3), types.FloatValue(3), types.NullValue(types.Varchar)},
	})
	for _, r := range recs {
		if r.Type == wal.RecInsert {
			if !bytes.Equal(r.Rows, first) {
				t.Error("first insert record is not storage.EncodeRows of the statement's rows")
			}
			break
		}
	}
	c = durableCluster(t, dir)
	defer c.Close()
	if got := dumpTable(sess(t, c, 1), "t"); !sameRows(got, want) {
		t.Errorf("after restart, table = %v, want %v", got, want)
	}
}

// writeRows is the boxed route into the write entry: rows columnized by
// storage.ColumnsFromRows, then writeColumns.
func (s *Session) writeRows(tx *txn.Txn, tbl *catalog.Table, rows []types.Row) (map[[2]string]float64, error) {
	cols, err := storage.ColumnsFromRows(rows, tbl.Def.Schema)
	if err != nil {
		return nil, err
	}
	return s.writeColumns(tx, tbl, cols, len(rows))
}

// INSERT ... SELECT hands a scan's batches to the write entry without boxing
// them when their kinds are already the target's; the statement must leave
// the containers the boxed, coerced route leaves.
func TestInsertSelectBatchesMatchBoxedRoute(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	rows := loadRows(5, 600)
	s.MustExecute("CREATE TABLE staging " + loadDDL + " SEGMENTED BY HASH(id)")
	if _, err := s.CopyFrom("COPY staging FROM STDIN FORMAT AVRO DIRECT", bytes.NewReader(avroFile(t, loadSchema, rows, 0))); err != nil {
		t.Fatal(err)
	}
	// Segmented differently from staging, so every row is re-hashed and re-routed.
	s.MustExecute("CREATE TABLE vec " + loadDDL + " SEGMENTED BY HASH(grp, name)")
	s.MustExecute("CREATE TABLE boxed " + loadDDL + " SEGMENTED BY HASH(grp, name)")

	res := s.MustExecute("INSERT INTO vec SELECT * FROM staging")
	if res.RowsAffected != int64(len(rows)) {
		t.Fatalf("INSERT ... SELECT affected %d rows, want %d", res.RowsAffected, len(rows))
	}
	// The boxed route: the same SELECT materialized, then the row entry.
	sel := s.MustExecute("SELECT * FROM staging")
	boxedTbl, _ := c.cat.Table("boxed")
	if _, err := s.writeStmt(func(tx *txn.Txn) (*Result, error) {
		_, err := s.writeRows(tx, boxedTbl, sel.Rows)
		return &Result{}, err
	}); err != nil {
		t.Fatal(err)
	}

	vecTbl, _ := c.cat.Table("vec")
	for i, st := range vecTbl.Stores {
		got, want := st.Containers(), boxedTbl.Stores[i].Containers()
		if len(got) != 1 || len(want) != 1 {
			t.Fatalf("store %d: %d vs %d containers, want one each", i, len(got), len(want))
		}
		if got[0].RowCount != want[0].RowCount || !reflect.DeepEqual(got[0].Hashes, want[0].Hashes) ||
			!reflect.DeepEqual(got[0].Cols, want[0].Cols) || !reflect.DeepEqual(got[0].Stats(), want[0].Stats()) {
			t.Errorf("store %d: the batch route and the boxed route built different containers", i)
		}
	}
	// A SELECT whose kinds differ from the target's still coerces.
	s.MustExecute("CREATE TABLE wide (id FLOAT, grp VARCHAR)")
	s.MustExecute("INSERT INTO wide SELECT id, grp FROM staging WHERE grp = 0")
	if v, _ := s.MustExecute("SELECT COUNT(*) FROM wide WHERE grp = '0'").Value(); v.I != 97 {
		t.Errorf("coerced INSERT ... SELECT kept %d rows, want 97", v.I)
	}
}

// A computed select item's vector and a passed-through column's share a batch,
// so they must be one length: a filter keeping a prefix of a single container
// once handed the write path a computed vector cut at the last kept row beside
// the container's full-length column, and the INSERT or UPDATE failed.
func TestInsertSelectComputedColumn(t *testing.T) {
	c := testCluster(t, 1)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE src (id INTEGER, v FLOAT)")
	var csv strings.Builder
	for i := 1; i <= 10; i++ {
		fmt.Fprintf(&csv, "%d,%d.5\n", i, i)
	}
	if _, err := s.CopyFrom("COPY src FROM STDIN FORMAT CSV DIRECT", strings.NewReader(csv.String())); err != nil {
		t.Fatal(err)
	}
	s.MustExecute("CREATE TABLE dst (w FLOAT, id INTEGER)")
	if res := s.MustExecute("INSERT INTO dst SELECT v + 1, id FROM src WHERE id <= 3"); res.RowsAffected != 3 {
		t.Fatalf("INSERT ... SELECT affected %d rows, want 3", res.RowsAffected)
	}
	if res := s.MustExecute("UPDATE src SET v = v + 1, id = id WHERE id <= 3"); res.RowsAffected != 3 {
		t.Fatalf("UPDATE affected %d rows, want 3", res.RowsAffected)
	}
	for q, want := range map[string]float64{
		"SELECT SUM(w), SUM(id) FROM dst":               10.5,
		"SELECT SUM(v), SUM(id) FROM src WHERE id <= 3": 10.5,
	} {
		row := s.MustExecute(q).Rows[0]
		if row[0].F != want || row[1].I != 6 {
			t.Errorf("%s = %v, want %v and 6", q, row, want)
		}
	}
}

// A block whose record count disagrees with its bytes fails the COPY; under
// autocommit nothing is committed and the session stays usable. At 579c79c
// the first file loaded 3 of its 6 rows and reported success.
func TestCopyAvroLyingBlockCount(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER, x FLOAT)")
	schema := types.NewSchema(types.Column{Name: "id", T: types.Int64}, types.Column{Name: "x", T: types.Float64})
	var rows []types.Row
	for i := 0; i < 6; i++ {
		rows = append(rows, types.Row{types.IntValue(int64(i)), types.FloatValue(float64(i))})
	}
	var buf bytes.Buffer
	w, _ := avro.NewWriter(&buf, avro.FromTypes(schema), avro.CodecNull, 3)
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The header ends with the 16-byte sync marker, which also ends every
	// block; the first block's count is the byte after the header's.
	file := buf.Bytes()
	marker := file[len(file)-16:]
	countAt := bytes.Index(file, marker) + 16
	if file[countAt] != 6 { // zigzag(3)
		t.Fatalf("first block's count byte = %d, want zigzag(3)", file[countAt])
	}
	for _, lie := range []byte{8, 4} { // zigzag(4), zigzag(2)
		bad := append([]byte(nil), file...)
		bad[countAt] = lie
		res, err := s.CopyFrom("COPY t FROM STDIN FORMAT AVRO DIRECT", bytes.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), "avro:") {
			t.Fatalf("count byte %d over 3 records: result %+v, err %v; want the COPY to fail with an avro: error", lie, res, err)
		}
		if v, _ := s.MustExecute("SELECT COUNT(*) FROM t").Value(); v.I != 0 {
			t.Fatalf("count byte %d: %d rows committed by a failed COPY", lie, v.I)
		}
	}
	if s.InTxn() {
		t.Error("failed autocommit COPY left a transaction open")
	}
	if _, err := s.CopyFrom("COPY t FROM STDIN FORMAT AVRO DIRECT", bytes.NewReader(file)); err != nil {
		t.Fatalf("session unusable after the failed COPY: %v", err)
	}
	if v, _ := s.MustExecute("SELECT COUNT(*) FROM t").Value(); v.I != 6 {
		t.Errorf("honest file loaded %d rows, want 6", v.I)
	}
}

// No types.Row is built between the Avro reader and the ROS container: a
// 10 000-row COPY ... AVRO DIRECT on a durable cluster costs a fixed number of
// allocations per block and per column, far under one per row.
func TestCopyAvroDirectAllocsNotPerRow(t *testing.T) {
	c := durableCluster(t, t.TempDir())
	defer c.Close()
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t " + loadDDL + " SEGMENTED BY HASH(id)")
	file := avroFile(t, loadSchema, loadRows(9, 10000), 1000)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := s.CopyFrom("COPY t FROM STDIN FORMAT AVRO DIRECT", bytes.NewReader(file)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1500 {
		t.Errorf("%.0f allocations for a 10 000-row COPY: something is allocating per row", allocs)
	}
}
