package vexec

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"vsfabric/internal/expr"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

// codedTwin cuts b's selection into up to parts non-empty runs, one batch
// each over b's vectors, and returns those batches with their twins over
// dictionary-coded columns, the way a join step leaves its build side: one
// dictionary per column (b's rows gathered in a shuffled order with repeats,
// each column of its stored kind), one codes vector shared by every column
// and every twin. A selected row's code points at its own values; a row no
// selection lists points at a random dictionary row.
func codedTwin(t *testing.T, rng *rand.Rand, b *storage.Batch, parts int) (dense, coded []*storage.Batch) {
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
	dicts, err := storage.GatherRows([]*storage.Batch{b}, make([]int32, len(src)), src)
	if err != nil {
		t.Fatal(err)
	}
	at := make([]int32, n)
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
	cols := make([]storage.Column, len(dicts))
	for j, d := range dicts {
		cols[j] = &storage.DictColumn{Codes: codes, Dict: d}
	}
	cuts := []int{0, len(b.Sel)}
	for k := min(parts, len(b.Sel)) - 1; k > 0; k-- {
		if c := 1 + rng.Intn(len(b.Sel)-1); !slices.Contains(cuts, c) {
			cuts = append(cuts, c)
		}
	}
	slices.Sort(cuts)
	for k := 1; k < len(cuts); k++ {
		sel := b.Sel[cuts[k-1]:cuts[k]]
		dense = append(dense, &storage.Batch{Schema: b.Schema, Cols: b.Cols, Sel: slices.Clone(sel)})
		coded = append(coded, &storage.Batch{Schema: b.Schema, Cols: cols, Sel: slices.Clone(sel)})
	}
	return dense, coded
}

// kernelConjuncts is every conjunct shape Compile lowers to a kernel, over
// each of intSchema's columns: IS [NOT] NULL, a bare BOOLEAN, and each
// comparison against a literal of the column's type, of the other numeric
// type, and NULL.
func kernelConjuncts() []expr.Expr {
	lits := map[string][]types.Value{
		"x": {types.IntValue(1), types.FloatValue(0.5), types.NullValue(types.Int64)},
		"f": {types.FloatValue(0.5), types.IntValue(3)},
		"s": {types.StringValue("a"), types.StringValue("7")},
		"b": {types.BoolValue(true), types.BoolValue(false)},
	}
	out := []expr.Expr{col("b")}
	for _, c := range []string{"x", "f", "s", "b"} {
		out = append(out, &expr.IsNull{E: col(c)}, &expr.IsNull{E: col(c), Negate: true})
		for op := expr.CmpOp(0); op < 6; op++ {
			for _, v := range lits[c] {
				out = append(out, cmp(op, col(c), lit(v)))
			}
		}
	}
	return out
}

// TestDictColumnMatchesDenseVector: over dictionary-coded columns — NULL
// dictionary entries, codes of unselected rows pointing elsewhere, and a
// null-free dictionary — the compiled evaluator, every kernel (by its
// boxed path, the one a DictColumn takes), HashAgg's key and argument paths
// and a join's probe and build give what they give over the batch's own
// vectors. The coded twins of one batch share one dictionary, so HashAgg and
// the probe carry what they learn about a code from one batch to the next;
// each trial strings the twins of two batches together, so what they learn is
// kept per dictionary.
func TestDictColumnMatchesDenseVector(t *testing.T) {
	g := &exprGen{rng: rand.New(rand.NewSource(31))}
	conjuncts := kernelConjuncts()
	schema := intSchema()
	aggs := []AggExpr{{Op: AggCount, Col: -1}, {Op: AggSum, Col: -1, Arg: &expr.Arith{Op: expr.Add, L: col("x"), R: lit(types.IntValue(1))}}}
	for _, op := range []AggOp{AggCount, AggSum, AggAvg, AggMin, AggMax} {
		for c := range schema.Cols {
			aggs = append(aggs, AggExpr{Op: op, Col: c})
		}
	}
	for trial := 0; trial < 300; trial++ {
		dense, coded := codedTwin(t, g.rng, g.batch(), 1+g.rng.Intn(3))
		dense2, coded2 := codedTwin(t, g.rng, g.batch(), 1+g.rng.Intn(2))
		dense, coded = append(dense, dense2...), append(coded, coded2...)

		e := g.gen(3)
		vec, _ := CompileExpr(e, schema)
		for k := range dense {
			g.calls = 0
			want, wantErr := vec(dense[k], dense[k].Sel)
			calls := g.calls
			g.calls = 0
			got, err := vec(coded[k], coded[k].Sel)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || g.calls != calls {
				t.Fatalf("trial %d %s: coded error %v after %d calls, dense %v after %d", trial, e.SQL(), err, g.calls, wantErr, calls)
			}
			if err != nil {
				continue
			}
			if got.Type() != want.Type() {
				t.Fatalf("trial %d %s: coded vector %v, dense %v", trial, e.SQL(), got.Type(), want.Type())
			}
			for _, i := range dense[k].Sel {
				if !sameValue(got.Get(int(i)), want.Get(int(i))) {
					t.Fatalf("trial %d %s row %d: coded %v, dense %v", trial, e.SQL(), i, got.Get(int(i)), want.Get(int(i)))
				}
			}
		}

		for _, c := range conjuncts {
			p := Compile(c, schema, nil)
			for k := range dense {
				d := &storage.Batch{Schema: schema, Cols: dense[k].Cols, Sel: slices.Clone(dense[k].Sel)}
				cd := &storage.Batch{Schema: schema, Cols: coded[k].Cols, Sel: slices.Clone(coded[k].Sel)}
				if err := p.FilterBatch(d); err != nil {
					t.Fatal(err)
				}
				if err := p.FilterBatch(cd); err != nil || !slices.Equal(cd.Sel, d.Sel) {
					t.Fatalf("trial %d WHERE %s: coded kept %v (%v), dense %v", trial, c.SQL(), cd.Sel, err, d.Sel)
				}
			}
		}

		for _, keys := range [][]int{{0}, {1}, {2}, {3}, {2, 0}} {
			spec := AggSpec{GroupCols: keys, Aggs: aggs}
			want, got := NewHashAgg(spec, schema), NewHashAgg(spec, schema)
			for k := range dense {
				if err := want.Consume(dense[k]); err != nil {
					t.Fatal(err)
				}
				if err := got.Consume(coded[k]); err != nil {
					t.Fatal(err)
				}
			}
			what := fmt.Sprintf("trial %d GROUP BY %v", trial, keys)
			if got.NumGroups() != want.NumGroups() || got.FastPath() != want.FastPath() {
				t.Fatalf("%s: coded %d %s groups, dense %d %s", what, got.NumGroups(), got.FastPath(), want.NumGroups(), want.FastPath())
			}
			for grp := 0; grp < want.NumGroups(); grp++ {
				for x, v := range want.GroupKey(grp) {
					wantValue(t, got.GroupKey(grp)[x], v, fmt.Sprintf("%s: group %d key %d", what, grp, x))
				}
				for j, a := range aggs {
					wantValue(t, got.AggResult(grp, j), want.AggResult(grp, j), fmt.Sprintf("%s: group %d, op %d over column %d", what, grp, a.Op, a.Col))
				}
			}
		}

		other := []*storage.Batch{g.batch()}
		for _, key := range []int{0, 1, 2} {
			for _, buildLeft := range []bool{false, true} {
				if got, want := collectJoin(coded, key, other, key, buildLeft), collectJoin(dense, key, other, key, buildLeft); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: coded left on column %d, buildLeft=%v: %v, dense %v", trial, key, buildLeft, got, want)
				}
				if got, want := collectJoin(other, key, coded, key, buildLeft), collectJoin(other, key, dense, key, buildLeft); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: coded right on column %d, buildLeft=%v: %v, dense %v", trial, key, buildLeft, got, want)
				}
			}
		}
	}
}
