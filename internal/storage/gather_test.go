package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

// sameValue is exact equality, kinds included: NaN equals NaN and -0 is not
// +0, which types.Compare would blur.
func sameValue(a, b types.Value) bool {
	return a.T == b.T && a.Null == b.Null && a.I == b.I && a.S == b.S && a.B == b.B &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

func sameRows(t *testing.T, what string, got, want []types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d has %d cells, want %d", what, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !sameValue(got[i][j], want[i][j]) {
				t.Fatalf("%s: row %d col %d = %#v, want %#v", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// gatherSchema has one column per kind the gather-encoder handles; kindBatch
// fills it with n rows: an integer column of runs of equal values (what
// chooseEncoding would run-length encode), an integer column with NULLs, floats including NaN, -0 and NULLs, low-cardinality strings (what
// chooseEncoding would dictionary-encode), high-cardinality strings with
// NULLs, and booleans with NULLs.
var gatherSchema = types.Schema{Cols: []types.Column{
	{Name: "runs", T: types.Int64}, {Name: "i", T: types.Int64}, {Name: "f", T: types.Float64},
	{Name: "dict", T: types.Varchar}, {Name: "s", T: types.Varchar}, {Name: "b", T: types.Bool},
}}

func kindBatch(rng *rand.Rand, n int) *Batch {
	runs := &Int64Column{Vals: make([]int64, n)}
	for lo := 0; lo < n; {
		hi := min(n, lo+1+rng.Intn(40))
		v := rng.Int63n(7) - 3
		for ; lo < hi; lo++ {
			runs.Vals[lo] = v
		}
	}
	ints := &Int64Column{Vals: make([]int64, n), Nulls: make([]bool, n)}
	floats := &Float64Column{Vals: make([]float64, n), Nulls: make([]bool, n)}
	dict := &StringColumn{Vals: make([]string, n)}
	strs := &StringColumn{Vals: make([]string, n), Nulls: make([]bool, n)}
	bools := &BoolColumn{Vals: make([]bool, n), Nulls: make([]bool, n)}
	special := []float64{math.NaN(), math.Copysign(0, -1), math.Inf(1), math.MaxFloat64, 0}
	for i := 0; i < n; i++ {
		ints.Vals[i], ints.Nulls[i] = rng.Int63()-rng.Int63(), rng.Intn(9) == 0
		floats.Vals[i], floats.Nulls[i] = rng.NormFloat64(), rng.Intn(9) == 0
		if rng.Intn(5) == 0 {
			floats.Vals[i] = special[rng.Intn(len(special))]
		}
		dict.Vals[i] = []string{"alpha", "beta", ""}[rng.Intn(3)]
		strs.Vals[i], strs.Nulls[i] = fmt.Sprintf("s%d-%x", i, rng.Int63()), rng.Intn(9) == 0
		bools.Vals[i], bools.Nulls[i] = rng.Intn(2) == 0, rng.Intn(9) == 0
	}
	return &Batch{Schema: gatherSchema, Cols: []Column{runs, ints, floats, dict, strs, bools}}
}

func randomSel(rng *rand.Rand, n int, keep float64) []int32 {
	sel := []int32{}
	for i := 0; i < n; i++ {
		if rng.Float64() < keep {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

// TestGatherEncodeMatchesMaterialize is the batch codec's property: for every
// column kind, the rows AppendBatches gathers through the selection vectors
// decode (DecodeColumns, then DecodeRows) to exactly the rows Materialize
// boxes from the same batches — across empty, single-row, sparse and full
// selections, and cut into frames at arbitrary boundaries the way the wire
// server cuts them.
func TestGatherEncodeMatchesMaterialize(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		var batches []*Batch
		for k := rng.Intn(4); k >= 0; k-- {
			n := 1 + rng.Intn(300)
			b := kindBatch(rng, n)
			switch rng.Intn(5) {
			case 0:
				b.Sel = []int32{}
			case 1:
				b.Sel = []int32{int32(rng.Intn(n))}
			case 2:
				b.Sel = IdentitySel(n)
			default:
				b.Sel = randomSel(rng, n, rng.Float64())
			}
			batches = append(batches, b)
		}
		want := Materialize(batches)

		// Cut the selected rows into frames of frameRows, a frame running on
		// across batch boundaries, and decode each frame.
		frameRows := 1 + rng.Intn(len(want)+2)
		var got []types.Row
		var frame []*Batch
		room := frameRows
		flush := func() {
			enc, err := AppendBatches([]byte("hdr"), gatherSchema, frame)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			schema, rows, err := DecodeRows(enc[3:])
			if err != nil {
				t.Fatalf("trial %d: decode: %v", trial, err)
			}
			if !schema.Equal(gatherSchema) {
				t.Fatalf("trial %d: schema %v", trial, schema)
			}
			got = append(got, rows...)
			frame, room = nil, frameRows
		}
		for _, b := range batches {
			for off := 0; off < len(b.Sel); {
				take := min(room, len(b.Sel)-off)
				frame = append(frame, &Batch{Cols: b.Cols, Sel: b.Sel[off : off+take]})
				off, room = off+take, room-take
				if room == 0 {
					flush()
				}
			}
		}
		flush() // the tail, or the zero-row schema-only frame
		sameRows(t, fmt.Sprintf("trial %d (frames of %d)", trial, frameRows), got, want)
	}
}

// TestGatherEncodeRejectsMisfit: a batch whose column is not of the schema
// column's type is an error, not a frame the client would mis-decode.
// TestGatherRowsMatchesBoxedPairs: a join's gather — arbitrary (batch, row)
// references, repeats and any order — yields the vectors whose rows are the
// referenced rows boxed one by one, for every column kind, NULLs included.
func TestGatherRowsMatchesBoxedPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	batches := []*Batch{kindBatch(rng, 300), kindBatch(rng, 1), kindBatch(rng, 90)}
	var bi, ri []int32
	var want []types.Row
	for k := 0; k < 2000; k++ {
		b := rng.Intn(len(batches))
		r := rng.Intn(batches[b].Cols[0].Len())
		bi, ri = append(bi, int32(b)), append(ri, int32(r))
		want = append(want, batches[b].Row(r, nil))
	}
	cols, err := GatherRows(batches, bi, ri)
	if err != nil {
		t.Fatal(err)
	}
	got := Materialize([]*Batch{{Schema: gatherSchema, Cols: cols, Sel: IdentitySel(len(bi))}})
	sameRows(t, "gathered", got, want)
	if got, _ := GatherRows(nil, nil, nil); got != nil {
		t.Fatalf("gather over no batches = %v", got)
	}
}

func TestGatherEncodeRejectsMisfit(t *testing.T) {
	b := &Batch{Cols: []Column{&Float64Column{Vals: []float64{1}}}, Sel: []int32{0}}
	schema := types.Schema{Cols: []types.Column{{Name: "x", T: types.Int64}}}
	if _, err := AppendBatches(nil, schema, []*Batch{b}); err == nil {
		t.Fatal("FLOAT vector encoded under an INTEGER schema column")
	}
}

// uv is a uvarint as bytes.
func uv(v uint64) []byte { return binary.AppendUvarint(nil, v) }

func cat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestDecodersBoundUntrustedLengths: every length a decoder reads is checked
// against the bytes that remain before it sizes an allocation. Each payload
// below used to panic (makeslice: len out of range), loop, or allocate
// gigabytes; each must now fail with ErrCorrupt.
func TestDecodersBoundUntrustedLengths(t *testing.T) {
	huge := uv(1 << 62)
	oneIntCol := cat(uv(1), uv(1), []byte("c"), []byte{byte(types.Int64)}) // schema (c INTEGER)
	column := map[string][]byte{
		"plain row count":  cat([]byte{byte(types.Int64), byte(encPlain)}, huge, []byte{0}),
		"delta row count":  cat([]byte{byte(types.Int64), byte(encDeltaVarint)}, huge, []byte{0}),
		"null bitmap":      cat([]byte{byte(types.Bool), byte(encPlain)}, uv(64), []byte{1, 0xff}),
		"RLE row count":    cat([]byte{byte(types.Int64), byte(encRLE)}, huge, []byte{0}, uv(1), []byte{2}),
		"RLE run":          cat([]byte{byte(types.Int64), byte(encRLE)}, uv(10), []byte{0}, uv(math.MaxUint64), []byte{2}),
		"dict size":        cat([]byte{byte(types.Varchar), byte(encDict)}, uv(1), []byte{0}, huge, []byte{0}),
		"dict string":      cat([]byte{byte(types.Varchar), byte(encDict)}, uv(1), []byte{0}, uv(1), huge),
		"plain string":     cat([]byte{byte(types.Varchar), byte(encPlain)}, uv(1), []byte{0}, huge),
		"unknown encoding": cat([]byte{byte(types.Int64), 0x7f}, uv(0), []byte{0}),
	}
	for name, data := range column {
		if _, err := decodeColumn(data, -1); !errors.Is(err, ErrCorrupt) {
			t.Errorf("decodeColumn(%s): %v, want ErrCorrupt", name, err)
		}
	}
	block := map[string][]byte{
		"schema column count": huge,
		"schema name length":  cat(uv(1), huge),
		"column chunk size":   cat(oneIntCol, uv(3), huge),
		"rows of no columns":  cat(uv(0), uv(5)),
		"rows past the limit": cat(oneIntCol, uv(1<<14+1), uv(6), []byte{byte(types.Int64), byte(encRLE)}, uv(1<<14+1), []byte{0}),
		"chunk row count":     cat(oneIntCol, uv(2), uv(5), []byte{byte(types.Int64), byte(encRLE)}, uv(9), []byte{0}, uv(9), []byte{2}),
		"column of wrong type": cat(oneIntCol, uv(1), uv(12),
			[]byte{byte(types.Float64), byte(encPlain)}, uv(1), []byte{0}, make([]byte, 8)),
	}
	for name, data := range block {
		if _, _, _, err := DecodeColumns(data, 1<<14); !errors.Is(err, ErrCorrupt) {
			t.Errorf("DecodeColumns(%s): %v, want ErrCorrupt", name, err)
		}
	}
}

// TestPlainChunkIsTheRowBlockChunk: a ROS container's plain chunk
// (encodeColumn) is byte for byte the chunk a row block carries
// for the same vector (AppendBatches), for every vector form — dense with and
// without NULLs, RLE and dictionary-coded — and decodes to the vector's
// values.
func TestPlainChunkIsTheRowBlockChunk(t *testing.T) {
	b := kindBatch(rand.New(rand.NewSource(5)), 200)
	forms := map[string]Column{
		"dense ints":            &Int64Column{Vals: b.Cols[1].(*Int64Column).Vals},
		"dense ints with NULLs": b.Cols[1],
		"floats with NULLs":     b.Cols[2],
		"strings":               b.Cols[3],
		"strings with NULLs":    b.Cols[4],
		"bools with NULLs":      b.Cols[5],
		"RLE":                   b.Cols[0],
		"dict": &DictColumn{Codes: []int32{2, 0, 0, 1, 2}, Dict: &StringColumn{
			Vals: []string{"x", "", "zz"}, Nulls: []bool{false, true, false}}},
	}
	for name, c := range forms {
		n := c.Len()
		chunk, err := encodeColumn(c, encPlain)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		schema := types.Schema{Cols: []types.Column{{Name: "c", T: c.Type()}}}
		block, err := AppendBatches(nil, schema, []*Batch{{Cols: []Column{c}, Sel: IdentitySel(n)}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r := &reader{b: block}
		if _, err := readSchema(r); err != nil {
			t.Fatal(err)
		}
		if rows, err := r.uvarint(); err != nil || rows != uint64(n) {
			t.Fatalf("%s: block of %d rows (%v), want %d", name, rows, err, n)
		}
		size, err := r.uvarint()
		if err != nil || size != uint64(len(r.b)) || string(r.b) != string(chunk) {
			t.Fatalf("%s: row block chunk %x (size %d), encodeColumn's plain chunk %x", name, r.b, size, chunk)
		}
		got, err := decodeColumn(chunk, int64(n))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameRows(t, name, Materialize([]*Batch{{Cols: []Column{got}, Sel: IdentitySel(n)}}),
			Materialize([]*Batch{{Cols: []Column{c}, Sel: IdentitySel(n)}}))
	}
}

// chosenBlock is a row block whose chunks carry the encoding chooseEncoding
// picks per column — the form WAL insert and delete records took before every
// row block was written plain by AppendBatches. Such records must still
// decode.
func chosenBlock(t testing.TB, schema types.Schema, rows []types.Row) []byte {
	cols, err := ColumnsFromRows(rows, schema)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	writeSchema(&buf, schema)
	writeUvarint(&buf, uint64(len(rows)))
	if err := writeColumns(&buf, cols); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEncodingChosenBlockDecodes: a row block with delta and dictionary
// chunks decodes to its rows.
func TestEncodingChosenBlockDecodes(t *testing.T) {
	schema := types.Schema{Cols: []types.Column{{Name: "id", T: types.Int64}, {Name: "tag", T: types.Varchar}}}
	rows := make([]types.Row, 40)
	for i := range rows {
		rows[i] = types.Row{types.IntValue(int64(i)), types.StringValue([]string{"a", "b"}[i%2])}
	}
	cols, _ := ColumnsFromRows(rows, schema)
	if e0, e1 := chooseEncoding(cols[0]), chooseEncoding(cols[1]); e0 != encDeltaVarint || e1 != encDict {
		t.Fatalf("chosen encodings %v, %v; want DELTA, DICT", e0, e1)
	}
	gotSchema, got, err := DecodeRows(chosenBlock(t, schema, rows))
	if err != nil || !gotSchema.Equal(schema) {
		t.Fatalf("decode: %v (schema %v)", err, gotSchema)
	}
	sameRows(t, "encoding-chosen block", got, rows)
}

// FuzzDecodeColumns: no input panics the batch decoder or makes it allocate
// out of proportion (it runs under the wire's 16384-row frame limit), and
// whatever it accepts re-encodes (AppendBatches) and decodes again to equal
// vectors.
func FuzzDecodeColumns(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	b := kindBatch(rng, 40)
	b.Sel = randomSel(rng, 40, 0.7)
	valid, err := AppendBatches(nil, gatherSchema, []*Batch{b})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(chosenBlock(f, batchSchema(), batchRows(0, 20))) // delta + plain chunks
	f.Add(cat(uv(1), uv(1), []byte("c"), []byte{byte(types.Int64)}, uv(0)))
	f.Add(uv(1 << 62))
	f.Fuzz(func(t *testing.T, data []byte) {
		schema, cols, n, err := DecodeColumns(data, 1<<14)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		first := []*Batch{{Cols: cols, Sel: IdentitySel(n)}}
		enc, err := AppendBatches(nil, schema, first)
		if err != nil {
			t.Fatalf("accepted input does not re-encode: %v", err)
		}
		schema2, cols2, n2, err := DecodeColumns(enc, n)
		if err != nil || n2 != n || !schema2.Equal(schema) {
			t.Fatalf("re-decode: %v (%d rows, want %d)", err, n2, n)
		}
		sameRows(t, "re-decoded", Materialize([]*Batch{{Cols: cols2, Sel: IdentitySel(n)}}), Materialize(first))
	})
}

// BenchmarkResultPath is a V2S result's whole life: scan a container of
// 1 INTEGER + 10 FLOAT columns (the paper's D1 shape) into a batch,
// gather-encode it frame by frame (16 384 rows each, the server's
// wireBatchRows) into one reused buffer, decode each frame to vectors and box
// every frame's rows at once, as TCPConn.Execute does at the done frame —
// storage.scan → server frames → client rows, without the socket.
// one_frame is a single 16 384-row frame (7 MB boxed); partition is one
// v2s_full partition, 75 000 rows landed from 5 frames (33 MB boxed). Both
// are past L2, but a lone goroutine on a quiet host may still find them in
// L3: v2s_full boxes two partitions at once beside the server. B/row and
// allocs/row are per row landed.
func BenchmarkResultPath(b *testing.B) {
	for _, bc := range []struct {
		name  string
		nrows int
	}{{"one_frame", 16384}, {"partition", 75000}} {
		b.Run(bc.name, func(b *testing.B) { benchResultPath(b, bc.nrows) })
	}
}

func benchResultPath(b *testing.B, nrows int) {
	const nfloat, frameRows = 10, 16384
	schema := types.Schema{Cols: []types.Column{{Name: "pcol", T: types.Int64}}}
	for j := 0; j < nfloat; j++ {
		schema.Cols = append(schema.Cols, types.Column{Name: fmt.Sprintf("c%d", j), T: types.Float64})
	}
	rng := rand.New(rand.NewSource(1))
	rows := make([]types.Row, nrows)
	for i := range rows {
		rows[i] = append(rows[i], types.IntValue(rng.Int63n(100)))
		for j := 0; j < nfloat; j++ {
			rows[i] = append(rows[i], types.FloatValue(rng.Float64()))
		}
	}
	store := NewStore(schema, nil)
	if err := store.AppendROS(rows, 1); err != nil {
		b.Fatal(err)
	}
	rows = nil
	vis, ring := Visibility{Epoch: 1}, vhash.Range{Lo: 0, Hi: vhash.RingSize}
	var frame []byte
	var landed []types.Row
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		var decoded []*Batch
		if err := store.ScanBatches(vis, ring, func(bt *Batch) bool {
			for lo := 0; lo < len(bt.Sel); lo += frameRows {
				var err error
				sel := bt.Sel[lo:min(lo+frameRows, len(bt.Sel))]
				if frame, err = AppendBatches(frame[:0], schema, []*Batch{{Cols: bt.Cols, Sel: sel}}); err != nil {
					b.Fatal(err)
				}
				_, cols, n, err := DecodeColumns(frame, frameRows)
				if err != nil || n != len(sel) {
					b.Fatalf("decoded %d rows of %d: %v", n, len(sel), err)
				}
				decoded = append(decoded, &Batch{Cols: cols, Sel: IdentitySel(n)})
			}
			return true
		}); err != nil {
			b.Fatal(err)
		}
		landed = Materialize(decoded)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if len(landed) != nrows {
		b.Fatalf("landed %d rows", len(landed))
	}
	perRow := float64(b.N) * float64(nrows)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/perRow, "B/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/perRow, "allocs/row")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perRow, "ns/row")
}
