package vexec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vsfabric/internal/expr"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

// TestDenseLoopsMatchIndexed: a batch whose Sel is a run takes the dense
// loops — intCmpKernel's null-free INTEGER compare, HashAgg's INTEGER key and
// SUM/AVG over a null-free FLOAT vector — and they give what the indexed loops
// give over the same rows spread to every other row of vectors twice as long
// (a selection of more than one row that is no run): the same rows kept under
// every comparison, the same groups in the same discovery order, and
// accumulators equal field for field, float sums bit for bit.
// Vectors with NULLs (which take the indexed loops), runs of equal keys, a
// LIMIT-cut prefix of the shared identity and a run of it that starts past
// row 0 (a LIMIT-pushed scan's later run) ride along; an owned copy of a run
// is that run too. A selection of one row is a run however it is spread, as
// no batch of one row takes an indexed loop: a one-row trial checks the dense
// loops against themselves.
func TestDenseLoopsMatchIndexed(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	schema := types.NewSchema(types.Column{Name: "k", T: types.Int64}, types.Column{Name: "f", T: types.Float64})
	nulls := func(n int) []bool {
		out := make([]bool, n)
		for i := range out {
			out[i] = rng.Intn(6) == 0
		}
		return out
	}
	key := func(n int) (storage.Column, string) {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(20) - 10
		}
		switch rng.Intn(4) {
		case 0:
			return &storage.Int64Column{Vals: vals, Nulls: nulls(n)}, "INTEGER with NULLs"
		case 1:
			for at := 0; at < n; {
				end := min(n, at+1+rng.Intn(8))
				for ; at < end; at++ {
					vals[at] = vals[end-1]
				}
			}
			return &storage.Int64Column{Vals: vals}, "INTEGER runs"
		}
		return &storage.Int64Column{Vals: vals}, "INTEGER"
	}
	value := func(n int) (storage.Column, string) {
		vals := make([]float64, n)
		for i := range vals {
			// Magnitudes far apart, so a sum's bits depend on its order.
			vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)))
		}
		if rng.Intn(3) == 0 {
			return &storage.Float64Column{Vals: vals, Nulls: nulls(n)}, "FLOAT with NULLs"
		}
		return &storage.Float64Column{Vals: vals}, "FLOAT"
	}
	spec := AggSpec{GroupCols: []int{0}, Aggs: []AggExpr{{Op: AggCount, Col: -1}, {Op: AggSum, Col: 1}, {Op: AggAvg, Col: 1}}}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		k, kd := key(n)
		f, fd := value(n)
		cols := []storage.Column{k, f}
		twice := make([]int32, 2*n) // row i of cols at rows 2i and 2i+1
		for i := range twice {
			twice[i] = int32(i / 2)
		}
		var wide []storage.Column
		for _, c := range cols {
			b := storage.NewBuilder(c.Type())
			if err := b.AppendColumn(c, twice); err != nil {
				t.Fatal(err)
			}
			wide = append(wide, b.Build())
		}
		batch := func(sel []int32) *storage.Batch { return &storage.Batch{Schema: schema, Cols: cols, Sel: sel} }
		spread := func(sel []int32) *storage.Batch {
			even := make([]int32, len(sel))
			for k, i := range sel {
				even[k] = 2 * i
			}
			return &storage.Batch{Schema: schema, Cols: wide, Sel: even}
		}
		from := rng.Intn(n)
		for _, run := range [][2]int{{0, n}, {0, 1 + rng.Intn(n)}, {from, from + 1 + rng.Intn(n-from)}} {
			lo, cut := run[0], run[1]
			shared := storage.IdentitySel(n)[lo:cut:cut] // a LIMIT cuts the shared identity to a prefix, or to a run
			owned := slices.Clone(shared)
			for _, sel := range [][]int32{shared, owned} {
				if at, ok := storage.IdentityRun(sel); !ok || at != lo {
					t.Fatalf("IdentityRun(identity[%d:%d]) = %d, %v", lo, cut, at, ok)
				}
			}
			if _, ok := storage.IdentityRun(spread(shared).Sel); ok != (cut-lo == 1) {
				t.Fatalf("IdentityRun(identity[%d:%d] spread) = %v", lo, cut, ok)
			}
			what := fmt.Sprintf("trial %d (key %s, value %s, rows %d..%d of %d)", trial, kd, fd, lo, cut, n)
			for _, op := range []expr.CmpOp{expr.EQ, expr.NE, expr.LT, expr.LE, expr.GT, expr.GE} {
				where := cmp(op, col("k"), lit(types.IntValue(rng.Int63n(24)-12)))
				p := Compile(where, schema, nil)
				dense, indexed := batch(owned), spread(shared)
				if err := errors.Join(p.FilterBatch(dense), p.FilterBatch(indexed)); err != nil {
					t.Fatal(err)
				}
				for k := range indexed.Sel {
					indexed.Sel[k] /= 2
				}
				if !slices.Equal(dense.Sel, indexed.Sel) {
					t.Fatalf("%s, %s: dense loop kept %v, indexed %v", what, where.SQL(), dense.Sel, indexed.Sel)
				}
			}
			dense, indexed := NewHashAgg(spec, schema), NewHashAgg(spec, schema)
			if err := errors.Join(dense.Consume(batch(shared)), indexed.Consume(spread(shared))); err != nil {
				t.Fatal(err)
			}
			if dense.NumGroups() != indexed.NumGroups() {
				t.Fatalf("%s: %d groups dense, %d indexed", what, dense.NumGroups(), indexed.NumGroups())
			}
			for g := 0; g < dense.NumGroups(); g++ {
				if !slices.Equal(dense.GroupKey(g), indexed.GroupKey(g)) {
					t.Fatalf("%s: group %d is %v dense, %v indexed", what, g, dense.GroupKey(g), indexed.GroupKey(g))
				}
				for j := range spec.Aggs {
					d, x := dense.accs[j][g], indexed.accs[j][g]
					if d != x || math.Float64bits(d.sumF) != math.Float64bits(x.sumF) {
						t.Fatalf("%s: group %d aggregate %d is %+v dense, %+v indexed", what, g, j, d, x)
					}
				}
			}
		}
	}
}

// TestKernelsWriteOnlyTheirOutput: a filter never writes through the Sel it is
// handed — a scan's batch may carry the shared identity — and hands back a
// selection of its own. Every kernel shape runs as the first narrowing over
// the shared identity, its column dense, with NULLs or a join's codes: each
// comparison family, IS [NOT] NULL, a bare BOOLEAN, the stored-hash kernel, a
// conjunct that can never be true, and a residual alone and after a kernel.
func TestKernelsWriteOnlyTheirOutput(t *testing.T) {
	schema := intSchema()
	const n = 64
	var rows []types.Row
	for i := 0; i < n; i++ {
		r := types.Row{types.IntValue(int64(i / 8)), types.FloatValue(float64(i) / 4),
			types.StringValue(fmt.Sprint("s", i%5)), types.BoolValue(i%3 == 0)}
		if i%7 == 3 {
			r[1+i%3] = types.NullValue(schema.Cols[1+i%3].T)
		}
		rows = append(rows, r)
	}
	base := mkBatch(t, schema, rows)
	x := base.Cols[0].(*storage.Int64Column)
	withNulls := &storage.Int64Column{Vals: x.Vals, Nulls: make([]bool, n)}
	withNulls.Nulls[5], withNulls.Nulls[40] = true, true
	reversed := make([]int32, n)
	for i := range reversed {
		reversed[i] = int32(n - 1 - i)
	}
	xs := []struct {
		name string
		col  storage.Column
	}{{"INTEGER", x}, {"INTEGER with NULLs", withNulls}, {"codes", &storage.DictColumn{Codes: reversed, Dict: x}}}
	residual := &expr.Or{L: cmp(expr.LT, col("f"), lit(types.FloatValue(3))), R: cmp(expr.EQ, col("s"), lit(types.StringValue("s4")))}
	preds := []expr.Expr{
		cmp(expr.GT, col("x"), lit(types.IntValue(4))),
		cmp(expr.LE, col("x"), lit(types.FloatValue(2.5))),
		cmp(expr.GE, col("f"), lit(types.FloatValue(7))),
		cmp(expr.EQ, col("s"), lit(types.StringValue("s2"))),
		cmp(expr.EQ, col("b"), lit(types.BoolValue(true))),
		col("b"),
		&expr.IsNull{E: col("x")},
		&expr.IsNull{E: col("f"), Negate: true},
		cmp(expr.EQ, col("x"), lit(types.NullValue(types.Int64))),
		lit(types.BoolValue(false)),
		cmp(expr.GE, &expr.HashFn{}, lit(types.IntValue(1<<31))),
		residual,
		expr.Conjoin(cmp(expr.NE, col("x"), lit(types.IntValue(5))), residual),
	}
	for _, v := range xs {
		cols := append([]storage.Column{v.col}, base.Cols[1:]...)
		hashes := make([]uint32, n)
		var row types.Row
		for i := range hashes {
			row = (&storage.Batch{Cols: cols}).Row(i, row)
			hashes[i] = vhash.HashRow(row, nil)
		}
		for _, where := range preds {
			shared := storage.IdentitySel(n)
			b := &storage.Batch{Schema: schema, Cols: cols, Hashes: hashes, Sel: shared}
			want := interpretSel(t, where, b, slices.Clone(shared))
			if err := Compile(where, schema, nil).FilterBatch(b); err != nil {
				t.Fatalf("%s x, %s: %v", v.name, where.SQL(), err)
			}
			if err := storage.CheckIdentitySel(); err != nil {
				t.Fatalf("%s x, %s: %v", v.name, where.SQL(), err)
			}
			if cap(b.Sel) > 0 && &b.Sel[:1][0] == &shared[0] {
				t.Errorf("%s x, %s: the filter's selection is the shared identity's backing", v.name, where.SQL())
			}
			if !slices.Equal(b.Sel, want) {
				t.Errorf("%s x, %s: kept %v, want %v", v.name, where.SQL(), b.Sel, want)
			}
		}
	}
}

// TestWholeBatchOutlivesIdentityGrowth: a scan-shaped batch — a container's
// vectors under IdentitySel — reaches the filter whole however the shared
// vector moved between the scan cutting its selection and the filter reading
// it: every row counts in IdentityRows, and the dense compare keeps the rows
// the predicate holds for.
func TestWholeBatchOutlivesIdentityGrowth(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "k", T: types.Int64})
	const n = 100
	vals := make([]int64, n)
	var want []int32
	for i := range vals {
		if vals[i] = int64(i % 7); vals[i] < 3 {
			want = append(want, int32(i))
		}
	}
	b := &storage.Batch{Schema: schema, Cols: []storage.Column{&storage.Int64Column{Vals: vals}}, Sel: storage.IdentitySel(n)}
	for m := n; &storage.IdentitySel(n)[0] == &b.Sel[0]; m *= 2 {
		storage.IdentitySel(m) // another scan grows the shared vector
	}
	var fs FilterStats
	if err := Compile(cmp(expr.LT, col("k"), lit(types.IntValue(3))), schema, nil).FilterBatchStats(b, &fs); err != nil {
		t.Fatal(err)
	}
	if fs.IdentityRows != n || !slices.Equal(b.Sel, want) {
		t.Fatalf("IdentityRows %d, kept %v; want %d and %v", fs.IdentityRows, b.Sel, n, want)
	}
}

// TestLongRunNarrowsLikeIndexed: a run longer than probeChunk is narrowed in
// two kernel calls, its first probeChunk rows and then the rest into a vector
// sized at the rate those kept. It keeps what the indexed loop keeps over the
// same rows spread out, and a predicate keeping every row allocates as often
// over a long run as over a short one: the growth steps do not follow the
// run's length.
func TestLongRunNarrowsLikeIndexed(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	schema := types.NewSchema(types.Column{Name: "k", T: types.Int64})
	const n = 3 * probeChunk
	vals, wide := make([]int64, n), make([]int64, 2*n)
	for i := range vals {
		vals[i] = rng.Int63n(24) - 12
		wide[2*i], wide[2*i+1] = vals[i], vals[i]
	}
	for _, lo := range []int{0, 1, probeChunk - 1, probeChunk + 1} {
		for _, bound := range []int64{-13, -12, 0, 11, 12} {
			for _, op := range []expr.CmpOp{expr.LT, expr.GE, expr.NE} {
				p := Compile(cmp(op, col("k"), lit(types.IntValue(bound))), schema, nil)
				run := &storage.Batch{Schema: schema, Cols: []storage.Column{&storage.Int64Column{Vals: vals}}, Sel: storage.IdentitySel(n)[lo:]}
				even := make([]int32, 0, n-lo)
				for i := lo; i < n; i++ {
					even = append(even, int32(2*i))
				}
				spread := &storage.Batch{Schema: schema, Cols: []storage.Column{&storage.Int64Column{Vals: wide}}, Sel: even}
				if err := errors.Join(p.FilterBatch(run), p.FilterBatch(spread)); err != nil {
					t.Fatal(err)
				}
				for k := range spread.Sel {
					spread.Sel[k] /= 2
				}
				if !slices.Equal(run.Sel, spread.Sel) {
					t.Fatalf("rows %d.. of %d, k %s %d: run kept %d rows, indexed %d", lo, n, op, bound, len(run.Sel), len(spread.Sel))
				}
			}
		}
	}
	keepAll := func(rows int) float64 {
		b := &storage.Batch{Schema: schema, Cols: []storage.Column{&storage.Int64Column{Vals: make([]int64, rows)}}}
		p := Compile(cmp(expr.GE, col("k"), lit(types.IntValue(0))), schema, nil)
		return testing.AllocsPerRun(5, func() {
			b.Sel = storage.IdentitySel(rows)[1:] // a container with its first row deleted
			if err := p.FilterBatch(b); err != nil || len(b.Sel) != rows-1 {
				t.Fatalf("kept %d of %d rows: %v", len(b.Sel), rows-1, err)
			}
		})
	}
	if short, long := keepAll(4*probeChunk), keepAll(64*probeChunk); long > short {
		t.Errorf("keeping every row of a run allocates %.0f times over %d rows, %.0f over %d", long, 64*probeChunk, short, 4*probeChunk)
	}
}
