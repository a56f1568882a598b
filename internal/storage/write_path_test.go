package storage

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

// writeRows boxes n random rows of gatherSchema — every kind, NULLs in each,
// empty strings, a column of runs — the way a row source hands them to
// the write path (NULL slots hold the zero value).
func writeRows(rng *rand.Rand, n int) []types.Row {
	b := kindBatch(rng, n)
	b.Sel = IdentitySel(n)
	return Materialize([]*Batch{b})
}

// Hashing column vectors is hashing rows: HashColumns agrees with
// vhash.HashRow on every row, for whole-row and column-subset segmentation,
// over dense vectors and dictionary-coded ones (a join's build side).
func TestHashColumnsMatchesHashRow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 63, 500} {
		rows := writeRows(rng, n)
		cols, err := ColumnsFromRows(rows, gatherSchema)
		if err != nil {
			t.Fatal(err)
		}
		coded := make([]Column, len(cols))
		for i, c := range cols {
			coded[i] = &DictColumn{Codes: IdentitySel(n), Dict: c}
		}
		for _, segIdx := range [][]int{nil, {0}, {2}, {4, 1}, {5, 3, 0}} {
			for _, in := range [][]Column{cols, coded} {
				got := HashColumns(in, segIdx, n)
				for i, r := range rows {
					if want := vhash.HashRow(r, segIdx); got[i] != want {
						t.Fatalf("n=%d segIdx=%v row %d %v: vector hash %d, row hash %d", n, segIdx, i, r, got[i], want)
					}
				}
			}
		}
	}

	// Each typed loop, null-free and with NULLs, over the values where
	// MixFloat branches: NaN payloads, −0 and +0, ±Inf, 2^53+1, integral floats
	// at and beyond ±2^63; then the same rows cut into blocks at every
	// boundary shape HashBatches sees.
	edgeFloats := []float64{
		math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000abc),
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1 << 53, 1<<53 + 2, 0.5, -2.5,
		math.MinInt64, -(1 << 63) - 2048, math.Nextafter(1<<63, 0), 1 << 63, 1 << 64, -(1 << 64),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	edgeInts := []int64{0, -1, 1<<53 + 1, -(1<<53 + 1), math.MinInt64, math.MaxInt64}
	n := 3 * len(edgeFloats)
	for _, withNulls := range []bool{false, true} {
		f := &Float64Column{Vals: make([]float64, n)}
		in := &Int64Column{Vals: make([]int64, n)}
		str := &StringColumn{Vals: make([]string, n)}
		bl := &BoolColumn{Vals: make([]bool, n)}
		for i := 0; i < n; i++ {
			f.Vals[i], in.Vals[i] = edgeFloats[i%len(edgeFloats)], edgeInts[i%len(edgeInts)]
			str.Vals[i], bl.Vals[i] = []string{"", "a", "\x00"}[i%3], i%2 == 0
		}
		if withNulls {
			f.Nulls, in.Nulls, str.Nulls, bl.Nulls = make([]bool, n), make([]bool, n), make([]bool, n), make([]bool, n)
			for i := 0; i < n; i += 4 {
				f.Nulls[i], in.Nulls[i+1], str.Nulls[i+2], bl.Nulls[i+3] = true, true, true, true
			}
		}
		cols := []Column{f, in, str, bl}
		rows := Materialize([]*Batch{{Cols: cols, Sel: IdentitySel(n)}})
		for _, segIdx := range [][]int{nil, {0}, {1}, {2}, {3}, {1, 0}} {
			whole := HashColumns(cols, segIdx, n)
			for i, r := range rows {
				if want := vhash.HashRow(r, segIdx); whole[i] != want {
					t.Fatalf("nulls=%v segIdx=%v row %d %v: vector hash %d, row hash %d", withNulls, segIdx, i, r, whole[i], want)
				}
			}
			for _, cuts := range [][]int{{0, n}, {0, 1, n}, {0, n - 1, n}, {0, 7, 8, 30, n}, {0, 0, 13, 13, n}} {
				var blocks []*Batch
				for k := 1; k < len(cuts); k++ {
					lo, hi := cuts[k-1], cuts[k]
					blocks = append(blocks, &Batch{Cols: []Column{sliceDense(f, lo, hi), sliceDense(in, lo, hi), sliceDense(str, lo, hi), sliceDense(bl, lo, hi)}, Sel: IdentitySel(hi - lo)})
				}
				if got := HashBatches(blocks, segIdx); !slices.Equal(got, whole) {
					t.Fatalf("nulls=%v segIdx=%v blocks cut at %v: hashes differ from the rows hashed whole", withNulls, segIdx, cuts)
				}
			}
		}
	}
}

// DenseColumns over any cut of a row set — blocks strung together, a sparse
// selection — is ColumnsFromRows of the rows the batches select; a single
// dense batch selected whole is shared, not copied.
func TestDenseColumnsMatchesColumnize(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 30; iter++ {
		var batches []*Batch
		for k, nb := 0, rng.Intn(4); k < nb; k++ {
			n := rng.Intn(200)
			b := kindBatch(rng, n)
			b.Sel = randomSel(rng, n, []float64{0, 0.3, 1}[rng.Intn(3)])
			batches = append(batches, b)
		}
		rows := Materialize(batches)
		want, err := ColumnsFromRows(rows, gatherSchema)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := DenseColumns(gatherSchema, batches)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(rows) {
			t.Fatalf("DenseColumns counts %d rows, want %d", n, len(rows))
		}
		sameRows(t, "DenseColumns", Materialize([]*Batch{{Cols: got, Sel: IdentitySel(n)}}), rows)
		for j := range want {
			if reflect.TypeOf(got[j]) != reflect.TypeOf(want[j]) || (nullsOf(got[j]) == nil) != (nullsOf(want[j]) == nil) {
				t.Errorf("column %d: %T (nulls %v), ColumnsFromRows gives %T (nulls %v)",
					j, got[j], nullsOf(got[j]) != nil, want[j], nullsOf(want[j]) != nil)
			}
		}
	}

	rows := writeRows(rng, 50)
	cols, _ := ColumnsFromRows(rows, gatherSchema)
	shared, n, err := DenseColumns(gatherSchema, []*Batch{{Cols: cols, Sel: IdentitySel(50)}})
	if err != nil || n != 50 {
		t.Fatal(n, err)
	}
	for j := range cols {
		if shared[j] != cols[j] {
			t.Errorf("column %d of a whole dense batch was copied", j)
		}
	}
	if _, _, err := DenseColumns(gatherSchema, []*Batch{{Cols: cols[:3], Sel: []int32{1}}}); err == nil {
		t.Error("a batch narrower than the schema should fail")
	}
	if _, _, err := DenseColumns(gatherSchema, []*Batch{{Cols: []Column{cols[2], cols[1], cols[2], cols[3], cols[4], cols[5]}, Sel: []int32{1}}}); err == nil {
		t.Error("a FLOAT vector under an INTEGER schema column should fail")
	}
}

// DenseColumns decides "every row, in order" from the whole selection: a
// permutation whose endpoints are 0 and n-1 — a sort's — is copied in its
// order, and any 0, 1, …, n-1 is shared, wherever its vector lives.
func TestDenseColumnsFollowsAPermutation(t *testing.T) {
	const n = 40
	rows := writeRows(rand.New(rand.NewSource(14)), n)
	cols, _ := ColumnsFromRows(rows, gatherSchema)
	swapped := slices.Clone(IdentitySel(n))
	swapped[1], swapped[2] = 2, 1
	middle := slices.Clone(IdentitySel(n))
	slices.Reverse(middle[1 : n-1])
	for _, sel := range [][]int32{swapped, middle} {
		got, _, err := DenseColumns(gatherSchema, []*Batch{{Cols: cols, Sel: sel}})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]types.Row, n)
		for k, i := range sel {
			want[k] = rows[i]
		}
		sameRows(t, fmt.Sprintf("DenseColumns over %v", sel[:4]), Materialize([]*Batch{{Cols: got, Sel: IdentitySel(n)}}), want)
	}
	got, _, err := DenseColumns(gatherSchema, []*Batch{{Cols: cols, Sel: slices.Clone(IdentitySel(n))}})
	if err != nil {
		t.Fatal(err)
	}
	for j := range cols {
		if got[j] != cols[j] {
			t.Errorf("column %d of a batch selecting 0…n-1 in a vector of its own was copied", j)
		}
	}
}

// A single batch selecting its first column's every row shares only the
// columns of that length; a longer column is cut to the selected rows.
func TestDenseColumnsCutsLongerColumn(t *testing.T) {
	rows := writeRows(rand.New(rand.NewSource(13)), 50)
	long, _ := ColumnsFromRows(rows, gatherSchema)
	short, _ := ColumnsFromRows(rows[:20], gatherSchema)
	cols, n, err := DenseColumns(gatherSchema, []*Batch{{Cols: append([]Column{short[0]}, long[1:]...), Sel: IdentitySel(20)}})
	if err != nil || n != 20 {
		t.Fatal(n, err)
	}
	if cols[0] != short[0] {
		t.Error("the 20-row column was copied")
	}
	for j, c := range cols[1:] {
		if c.Len() != 20 {
			t.Errorf("column %d: a 20-row selection over a 50-row column gives %d rows", j+1, c.Len())
		}
	}
}

// The vector entry is the row entry minus the boxing: AppendColumns builds
// AppendROS's container.
func TestColumnEntriesMatchRowEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 70, 400} {
		rows := writeRows(rng, n)
		cols, err := ColumnsFromRows(rows, gatherSchema)
		if err != nil {
			t.Fatal(err)
		}
		segIdx := []int{1, 3}
		byRows, byCols := NewStore(gatherSchema, segIdx), NewStore(gatherSchema, segIdx)
		if err := byRows.AppendROS(rows, 7); err != nil {
			t.Fatal(err)
		}
		if err := byCols.AppendColumns(cols, HashColumns(cols, segIdx, n), 7, nil); err != nil {
			t.Fatal(err)
		}
		sameRowVersions(t, fmt.Sprintf("n=%d", n), exportRowVersions(byCols), exportRowVersions(byRows))
		sameContainers(t, fmt.Sprintf("n=%d", n), byCols.Containers(), byRows.Containers())
	}
	wrong := []Column{&Float64Column{Vals: []float64{1}}}
	st := NewStore(types.NewSchema(types.Column{Name: "a", T: types.Int64}), nil)
	if err := st.AppendColumns(wrong, []uint32{1}, 1, nil); err == nil {
		t.Error("a FLOAT vector under an INTEGER schema column should fail")
	}
}

// TestBuilderHoldsNoNullFlagsUntilANull: a builder fed no NULL — by Append or
// by AppendColumn over vectors without NULL flags, or with flags none of the
// selected rows sets — builds a vector with nil flags and allocates none, and
// the first NULL after k values, through either entry, flags exactly row k.
func TestBuilderHoldsNoNullFlagsUntilANull(t *testing.T) {
	const n = 4096
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	flags := make([]bool, n)
	flags[n-1] = true
	sel := IdentitySel(n - 1)
	var built Column
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const runs = 20
	for range runs {
		b := NewBuilder(types.Int64)
		b.Grow(2 * (n - 1))
		if err := b.AppendColumn(&Int64Column{Vals: vals}, sel); err != nil {
			t.Fatal(err)
		}
		if err := b.AppendColumn(&Int64Column{Vals: vals, Nulls: flags}, sel); err != nil {
			t.Fatal(err)
		}
		built = b.Build()
	}
	runtime.ReadMemStats(&m1)
	if got := built.(*Int64Column); got.Nulls != nil || len(got.Vals) != 2*(n-1) {
		t.Fatalf("%d values with NULL flags %v, want %d values and none", len(got.Vals), got.Nulls != nil, 2*(n-1))
	}
	// The values are 8 bytes each; a flag a value would add one more. The
	// race detector changes what allocates.
	if per := float64(m1.TotalAlloc-m0.TotalAlloc) / runs; !raceDetector && per > 8*2*(n-1)+512 {
		t.Errorf("building %d NULL-free values allocates %.0f bytes, want about %d", 2*(n-1), per, 8*2*(n-1))
	}

	for _, k := range []int{0, 1, 7, 100} {
		// Append: k values, a NULL, then more values.
		b := NewBuilder(types.Int64)
		for i := 0; i < k; i++ {
			if err := b.Append(types.IntValue(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if b.nulls != nil {
			t.Fatalf("k=%d: NULL flags before any NULL", k)
		}
		for _, v := range []types.Value{types.NullValue(types.Int64), types.IntValue(1), types.IntValue(2)} {
			if err := b.Append(v); err != nil {
				t.Fatal(err)
			}
		}
		checkOneNull(t, fmt.Sprintf("Append k=%d", k), b.Build(), k, k+3)

		// AppendColumn: k values from a vector without flags, then a block
		// whose second selected row is NULL.
		b = NewBuilder(types.Int64)
		if err := b.AppendColumn(&Int64Column{Vals: vals}, IdentitySel(k)); err != nil {
			t.Fatal(err)
		}
		nulls := make([]bool, 10)
		nulls[3] = true
		if err := b.AppendColumn(&Int64Column{Vals: vals[:10], Nulls: nulls}, []int32{2, 3, 4}); err != nil {
			t.Fatal(err)
		}
		checkOneNull(t, fmt.Sprintf("AppendColumn k=%d", k), b.Build(), k+1, k+3)
	}
}

// checkOneNull checks c holds n values of which only row k is NULL.
func checkOneNull(t *testing.T, what string, c Column, k, n int) {
	t.Helper()
	got := c.(*Int64Column)
	if len(got.Vals) != n || len(got.Nulls) != n {
		t.Fatalf("%s: %d values, %d NULL flags; want %d of each", what, len(got.Vals), len(got.Nulls), n)
	}
	for i, null := range got.Nulls {
		if null != (i == k) {
			t.Fatalf("%s: row %d NULL = %t, want only row %d NULL", what, i, null, k)
		}
	}
}
