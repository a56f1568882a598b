package storage

import (
	"fmt"
	"math/rand"
	"reflect"
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
		if err := byCols.AppendColumns(cols, HashColumns(cols, segIdx, n), 7); err != nil {
			t.Fatal(err)
		}
		sameVersions(t, fmt.Sprintf("n=%d", n), exportVersions(t, byCols), exportRowVersions(byRows))
		sameContainers(t, fmt.Sprintf("n=%d", n), byCols.Containers(), byRows.Containers())
	}
	wrong := []Column{&Float64Column{Vals: []float64{1}}}
	st := NewStore(types.NewSchema(types.Column{Name: "a", T: types.Int64}), nil)
	if err := st.AppendColumns(wrong, []uint32{1}, 1); err == nil {
		t.Error("a FLOAT vector under an INTEGER schema column should fail")
	}
}
