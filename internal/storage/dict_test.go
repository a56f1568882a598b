package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"vsfabric/internal/types"
)

// dictTwin returns a batch over b's selection whose every column is
// dictionary-coded, the way a join carries its build side: the dictionary is
// b's rows gathered in a shuffled order with repeats (a dense vector of each
// column's stored kind, NULLs included), and one codes vector, shared by every
// column, points each selected row at the dictionary row holding its values.
// An unselected row points at a random dictionary row.
func dictTwin(t *testing.T, rng *rand.Rand, b *Batch) *Batch {
	t.Helper()
	n := b.Cols[0].Len()
	var src []int32
	for _, r := range rng.Perm(n) {
		src = append(src, int32(r))
	}
	for k := rng.Intn(n + 1); k > 0; k-- {
		src = append(src, int32(rng.Intn(n)))
	}
	rng.Shuffle(len(src), func(a, c int) { src[a], src[c] = src[c], src[a] })
	dict, err := GatherRows([]*Batch{b}, make([]int32, len(src)), src)
	if err != nil {
		t.Fatal(err)
	}
	at := make([]int32, n) // a dictionary row of each physical row
	for pos, r := range src {
		at[r] = int32(pos)
	}
	codes := make([]int32, n)
	for i := range codes {
		codes[i] = int32(rng.Intn(len(src)))
	}
	for _, i := range b.Sel {
		codes[i] = at[i]
	}
	cols := make([]Column, len(dict))
	for j, d := range dict {
		cols[j] = &DictColumn{Codes: codes, Dict: d}
	}
	return &Batch{Schema: b.Schema, Cols: cols, Sel: b.Sel}
}

// denseTwin is a DictColumn batch's reference: each column rebuilt value by
// value from the dictionary at the codes, for every physical row.
func denseTwin(t *testing.T, b *Batch) *Batch {
	t.Helper()
	cols := make([]Column, len(b.Cols))
	for j, c := range b.Cols {
		d := c.(*DictColumn)
		bld := NewBuilder(d.Dict.Type())
		for _, code := range d.Codes {
			if err := bld.Append(d.Dict.Get(int(code))); err != nil {
				t.Fatal(err)
			}
		}
		cols[j] = bld.Build()
	}
	return &Batch{Schema: b.Schema, Cols: cols, Sel: b.Sel}
}

func sameColumn(t *testing.T, what string, got, want Column) {
	t.Helper()
	if got.Len() != want.Len() || got.Type() != want.Type() {
		t.Fatalf("%s: %d %v rows, want %d %v", what, got.Len(), got.Type(), want.Len(), want.Type())
	}
	for i := 0; i < want.Len(); i++ {
		if !sameValue(got.Get(i), want.Get(i)) || got.IsNull(i) != want.IsNull(i) {
			t.Fatalf("%s row %d: %#v (null %v), want %#v (null %v)", what, i, got.Get(i), got.IsNull(i), want.Get(i), want.IsNull(i))
		}
	}
}

// TestDictColumnBehavesAsDense: a DictColumn reads as the dense vector of its
// dictionary's values at its codes — through Get, IsNull and Len, Densify,
// the wire encoder (byte for byte), DenseColumns, Materialize and a join's
// gather — for every column kind, NULL dictionary entries and rows no
// selection lists.
func TestDictColumnBehavesAsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		var coded, dense, densified []*Batch
		for k := 1 + rng.Intn(3); k > 0; k-- {
			n := 1 + rng.Intn(200)
			b := kindBatch(rng, n)
			b.Sel = randomSel(rng, n, rng.Float64())
			c := dictTwin(t, rng, b)
			d := denseTwin(t, c)
			for j := range c.Cols {
				what := fmt.Sprintf("trial %d column %s", trial, gatherSchema.Cols[j].Name)
				sameColumn(t, what, c.Cols[j], d.Cols[j])
				flat := Densify(c.Cols[j])
				if _, still := flat.(*DictColumn); still {
					t.Fatalf("%s: Densify kept the codes", what)
				}
				sameColumn(t, what+" densified", flat, d.Cols[j])
				for _, i := range b.Sel {
					if !sameValue(c.Cols[j].Get(int(i)), b.Cols[j].Get(int(i))) {
						t.Fatalf("%s: selected row %d is not the batch's own", what, i)
					}
				}
			}
			coded, dense = append(coded, c), append(dense, d)
			densified = append(densified, &Batch{Cols: make([]Column, len(c.Cols)), Sel: c.Sel})
			for j, col := range c.Cols {
				densified[len(densified)-1].Cols[j] = Densify(col)
			}
		}

		// Byte for byte, the value stored under a NULL included.
		want, err := AppendBatches(nil, gatherSchema, densified)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := AppendBatches(nil, gatherSchema, coded); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("trial %d: encoded %d bytes (%v), dense %d", trial, len(got), err, len(want))
		}
		sameRows(t, fmt.Sprintf("trial %d materialized", trial), Materialize(coded), Materialize(dense))

		gotCols, gotN, err := DenseColumns(gatherSchema, coded)
		if err != nil {
			t.Fatal(err)
		}
		wantCols, wantN, _ := DenseColumns(gatherSchema, dense)
		if gotN != wantN {
			t.Fatalf("trial %d: DenseColumns %d rows, want %d", trial, gotN, wantN)
		}
		for j := range wantCols {
			sameColumn(t, fmt.Sprintf("trial %d DenseColumns %d", trial, j), gotCols[j], wantCols[j])
		}
		// The whole-batch path of DenseColumns: one batch selecting every row.
		whole := &Batch{Cols: coded[0].Cols, Sel: IdentitySel(coded[0].Cols[0].Len())}
		wholeCols, _, err := DenseColumns(gatherSchema, []*Batch{whole})
		if err != nil {
			t.Fatal(err)
		}
		for j := range wholeCols {
			sameColumn(t, fmt.Sprintf("trial %d whole DenseColumns %d", trial, j), wholeCols[j], dense[0].Cols[j])
		}

		var bi, ri []int32
		for k := 0; k < 300; k++ {
			b := rng.Intn(len(coded))
			bi, ri = append(bi, int32(b)), append(ri, int32(rng.Intn(coded[b].Cols[0].Len())))
		}
		gathered, err := GatherRows(coded, bi, ri)
		if err != nil {
			t.Fatal(err)
		}
		wantGathered, _ := GatherRows(dense, bi, ri)
		for j := range wantGathered {
			sameColumn(t, fmt.Sprintf("trial %d gathered %d", trial, j), gathered[j], wantGathered[j])
		}
	}
}

// TestDictColumnDriftedDictionary: a dictionary whose stored type is not its
// schema column's is refused as the same dense vector would be — by a gather
// whose first batch carries the column's type, the encoder and the write path.
func TestDictColumnDriftedDictionary(t *testing.T) {
	schema := types.Schema{Cols: []types.Column{{Name: "x", T: types.Int64}}}
	drifted := &Float64Column{Vals: []float64{-1, 4, 0}, Nulls: []bool{false, false, true}}
	coded := &DictColumn{Codes: []int32{1, 2, 0, 1}, Dict: drifted}
	dense := Densify(coded)
	sameColumn(t, "drifted", coded, dense)
	head := &Batch{Schema: schema, Cols: []Column{&Int64Column{Vals: []int64{9}}}, Sel: []int32{0}}
	bi, ri := []int32{1, 1, 0, 1}, []int32{0, 1, 0, 3}
	for _, c := range []Column{coded, dense} {
		if _, err := GatherRows([]*Batch{head, {Cols: []Column{c}, Sel: []int32{0, 1, 3}}}, bi, ri); err == nil {
			t.Fatalf("%T of FLOAT values gathered into an INTEGER column", c)
		}
	}
	for _, c := range []Column{coded, dense} {
		b := &Batch{Cols: []Column{c}, Sel: []int32{0, 3}}
		if _, err := AppendBatches(nil, schema, []*Batch{b}); err == nil {
			t.Fatalf("%T of FLOAT values encoded under an INTEGER schema column", c)
		}
		if _, _, err := DenseColumns(schema, []*Batch{b}); err == nil {
			t.Fatalf("%T of FLOAT values made insertable under an INTEGER schema column", c)
		}
	}
}
