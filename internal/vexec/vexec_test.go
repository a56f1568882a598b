package vexec

import (
	"fmt"
	"math/rand"
	"testing"

	"vsfabric/internal/expr"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

func intSchema() types.Schema {
	return types.Schema{Cols: []types.Column{
		{Name: "x", T: types.Int64},
		{Name: "f", T: types.Float64},
		{Name: "s", T: types.Varchar},
		{Name: "b", T: types.Bool},
	}}
}

// mkBatch builds a batch from rows with a full selection vector.
func mkBatch(t *testing.T, schema types.Schema, rows []types.Row) *storage.Batch {
	t.Helper()
	cols, err := storage.ColumnsFromRows(rows, schema)
	if err != nil {
		t.Fatal(err)
	}
	hashes := make([]uint32, len(rows))
	for i, r := range rows {
		hashes[i] = vhash.HashRow(r, nil)
	}
	sel := make([]int32, len(rows))
	for i := range sel {
		sel[i] = int32(i)
	}
	return &storage.Batch{Schema: schema, Cols: cols, Hashes: hashes, Sel: sel}
}

// interpretSel returns the selection the interpreted evaluator would keep.
func interpretSel(t *testing.T, where expr.Expr, b *storage.Batch, sel []int32) []int32 {
	t.Helper()
	var out []int32
	var row types.Row
	for _, i := range sel {
		row = b.Row(int(i), row)
		ok, err := expr.EvalPredicate(where, row, &b.Schema)
		if err != nil {
			t.Fatalf("interpret: %v", err)
		}
		if ok {
			out = append(out, i)
		}
	}
	return out
}

func selEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func runBoth(t *testing.T, where expr.Expr, b *storage.Batch, wantKernels int) []int32 {
	t.Helper()
	want := interpretSel(t, where, b, b.Sel)
	p := Compile(where, b.Schema, nil)
	if wantKernels >= 0 && p.NumKernels() != wantKernels {
		t.Fatalf("Compile(%s): %d kernels, want %d (%d compiled conjuncts)", where.SQL(), p.NumKernels(), wantKernels, len(p.conjuncts))
	}
	if err := p.FilterBatch(b); err != nil {
		t.Fatalf("FilterBatch(%s): %v", where.SQL(), err)
	}
	if !selEqual(b.Sel, want) {
		t.Fatalf("FilterBatch(%s) = %v, want %v", where.SQL(), b.Sel, want)
	}
	return b.Sel
}

func col(n string) expr.Expr      { return &expr.Col{Name: n} }
func lit(v types.Value) expr.Expr { return &expr.Lit{V: v} }
func cmp(op expr.CmpOp, l, r expr.Expr) expr.Expr {
	return &expr.Cmp{Op: op, L: l, R: r}
}

func TestKernelIntCmpWithNulls(t *testing.T) {
	schema := intSchema()
	rows := []types.Row{
		{types.IntValue(1), types.FloatValue(0.5), types.StringValue("a"), types.BoolValue(true)},
		{types.NullValue(types.Int64), types.FloatValue(1.5), types.StringValue("b"), types.BoolValue(false)},
		{types.IntValue(3), types.NullValue(types.Float64), types.NullValue(types.Varchar), types.NullValue(types.Bool)},
		{types.IntValue(-7), types.FloatValue(3.5), types.StringValue("c"), types.BoolValue(true)},
	}
	for _, op := range []expr.CmpOp{expr.EQ, expr.NE, expr.LT, expr.LE, expr.GT, expr.GE} {
		b := mkBatch(t, schema, rows)
		runBoth(t, cmp(op, col("x"), lit(types.IntValue(1))), b, 1)
	}
	// NULL rows must be dropped by every comparison.
	b := mkBatch(t, schema, rows)
	got := runBoth(t, cmp(expr.NE, col("x"), lit(types.IntValue(99))), b, 1)
	if len(got) != 3 {
		t.Fatalf("NE kernel kept %v, want 3 non-null rows", got)
	}
}

func TestKernelLiteralOnLeftFlips(t *testing.T) {
	schema := intSchema()
	rows := []types.Row{
		{types.IntValue(1), types.FloatValue(0), types.StringValue(""), types.BoolValue(false)},
		{types.IntValue(5), types.FloatValue(0), types.StringValue(""), types.BoolValue(false)},
		{types.IntValue(9), types.FloatValue(0), types.StringValue(""), types.BoolValue(false)},
	}
	// 5 < x  ≡  x > 5 → only 9 survives.
	b := mkBatch(t, schema, rows)
	got := runBoth(t, cmp(expr.LT, lit(types.IntValue(5)), col("x")), b, 1)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("flipped kernel kept %v, want [2]", got)
	}
}

func TestKernelNullLiteralSelectsNothing(t *testing.T) {
	schema := intSchema()
	rows := []types.Row{
		{types.IntValue(1), types.FloatValue(0), types.StringValue(""), types.BoolValue(false)},
	}
	b := mkBatch(t, schema, rows)
	got := runBoth(t, cmp(expr.EQ, col("x"), lit(types.NullValue(types.Int64))), b, 1)
	if len(got) != 0 {
		t.Fatalf("x = NULL kept %v, want none", got)
	}
}

func TestKernelIsNull(t *testing.T) {
	schema := intSchema()
	rows := []types.Row{
		{types.IntValue(1), types.FloatValue(0), types.StringValue(""), types.BoolValue(false)},
		{types.NullValue(types.Int64), types.FloatValue(0), types.StringValue(""), types.BoolValue(false)},
	}
	b := mkBatch(t, schema, rows)
	got := runBoth(t, &expr.IsNull{E: col("x")}, b, 1)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("IS NULL kept %v, want [1]", got)
	}
	b = mkBatch(t, schema, rows)
	got = runBoth(t, &expr.IsNull{E: col("x"), Negate: true}, b, 1)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("IS NOT NULL kept %v, want [0]", got)
	}
}

func TestKernelEmptySelection(t *testing.T) {
	schema := intSchema()
	rows := []types.Row{
		{types.IntValue(1), types.FloatValue(0), types.StringValue(""), types.BoolValue(false)},
	}
	b := mkBatch(t, schema, rows)
	b.Sel = b.Sel[:0]
	p := Compile(cmp(expr.EQ, col("x"), lit(types.IntValue(1))), schema, nil)
	if err := p.FilterBatch(b); err != nil {
		t.Fatal(err)
	}
	if len(b.Sel) != 0 {
		t.Fatalf("empty selection grew to %v", b.Sel)
	}
}

func TestKernelMixedCompiledAndResidual(t *testing.T) {
	schema := intSchema()
	var rows []types.Row
	for i := 0; i < 50; i++ {
		rows = append(rows, types.Row{
			types.IntValue(int64(i % 7)),
			types.FloatValue(float64(i) / 3),
			types.StringValue(fmt.Sprintf("s%d", i%5)),
			types.BoolValue(i%2 == 0),
		})
	}
	// x >= 2 compiles; (f > 1 OR s = 's3') is an OR → residual.
	where := expr.Conjoin(
		cmp(expr.GE, col("x"), lit(types.IntValue(2))),
		&expr.Or{
			L: cmp(expr.GT, col("f"), lit(types.FloatValue(1))),
			R: cmp(expr.EQ, col("s"), lit(types.StringValue("s3"))),
		},
	)
	b := mkBatch(t, schema, rows)
	p := Compile(where, schema, nil)
	if p.NumKernels() != 1 {
		t.Fatalf("want 1 compiled kernel, got %d", p.NumKernels())
	}
	if p.conjuncts == nil {
		t.Fatalf("want a residual for the OR conjunct")
	}
	runBoth(t, where, b, -1)
}

func TestKernelHashRange(t *testing.T) {
	schema := types.Schema{Cols: []types.Column{{Name: "x", T: types.Int64}}}
	var rows []types.Row
	for i := 0; i < 64; i++ {
		rows = append(rows, types.Row{types.IntValue(int64(i))})
	}
	b := mkBatch(t, schema, rows)
	mid := int64(1) << 31
	where := cmp(expr.GE, &expr.HashFn{}, lit(types.IntValue(mid)))
	p := Compile(where, schema, nil)
	if p.NumKernels() != 1 || p.inRing == nil || len(p.conjuncts) != 1 {
		t.Fatalf("HASH(*) range did not compile to a kernel")
	}
	want := interpretSel(t, where, b, b.Sel)
	if err := p.FilterBatch(b); err != nil {
		t.Fatal(err)
	}
	if !selEqual(b.Sel, want) {
		t.Fatalf("hash kernel got %v, want %v", b.Sel, want)
	}
	if len(b.Sel) == 0 || len(b.Sel) == len(rows) {
		t.Fatalf("hash range should split the rows, kept %d/%d", len(b.Sel), len(rows))
	}
}

// TestHashConjunctOnDerivedBatch: a batch that carries no stored hashes — a
// join's output, a view's or a system table's rows — answers the same compiled
// predicate by interpreting its HASH conjuncts over the batch's own rows.
func TestHashConjunctOnDerivedBatch(t *testing.T) {
	schema := types.Schema{Cols: []types.Column{{Name: "x", T: types.Int64}}}
	var rows []types.Row
	for i := 0; i < 64; i++ {
		rows = append(rows, types.Row{types.IntValue(int64(i))})
	}
	where := expr.Conjoin(cmp(expr.GE, &expr.HashFn{}, lit(types.IntValue(1<<31))), cmp(expr.LT, col("x"), lit(types.IntValue(50))))
	p := Compile(where, schema, nil)
	if p.NumKernels() != 2 {
		t.Fatalf("%d kernels, want 2", p.NumKernels())
	}
	stored, derived := mkBatch(t, schema, rows), mkBatch(t, schema, rows)
	derived.Hashes = nil
	want := interpretSel(t, where, stored, stored.Sel)
	var fs FilterStats
	for _, b := range []*storage.Batch{stored, derived} {
		if err := p.FilterBatchStats(b, &fs); err != nil {
			t.Fatal(err)
		}
		if !selEqual(b.Sel, want) || len(want) == 0 || len(want) >= 50 {
			t.Fatalf("hashes %v: kept %v, want %v", b.Hashes != nil, b.Sel, want)
		}
	}
	if fs.KernelRows != 128 || fs.ResidualRows != 50 {
		t.Fatalf("kernel rows %d, residual rows %d; want 128 and the derived batch's 50 survivors", fs.KernelRows, fs.ResidualRows)
	}
}

func TestKernelBareBoolColumn(t *testing.T) {
	schema := intSchema()
	rows := []types.Row{
		{types.IntValue(0), types.FloatValue(0), types.StringValue(""), types.BoolValue(true)},
		{types.IntValue(0), types.FloatValue(0), types.StringValue(""), types.BoolValue(false)},
		{types.IntValue(0), types.FloatValue(0), types.StringValue(""), types.NullValue(types.Bool)},
	}
	b := mkBatch(t, schema, rows)
	got := runBoth(t, col("b"), b, 1)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("bare bool kernel kept %v, want [0]", got)
	}
}

// TestVectorizedMatchesInterpretedProperty cross-checks the compiled
// pipeline against the interpreter on random data and random predicates.
func TestVectorizedMatchesInterpretedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0xfab51c))
	schema := intSchema()
	strs := []string{"alpha", "beta", "gamma", "", "delta"}
	randVal := func(t types.Type) types.Value {
		if rng.Intn(8) == 0 {
			return types.NullValue(t)
		}
		switch t {
		case types.Int64:
			return types.IntValue(int64(rng.Intn(20) - 10))
		case types.Float64:
			return types.FloatValue(float64(rng.Intn(40))/4 - 5)
		case types.Varchar:
			return types.StringValue(strs[rng.Intn(len(strs))])
		default:
			return types.BoolValue(rng.Intn(2) == 0)
		}
	}
	randLeaf := func() expr.Expr {
		ci := rng.Intn(len(schema.Cols))
		c := schema.Cols[ci]
		switch rng.Intn(4) {
		case 0:
			return &expr.IsNull{E: col(c.Name), Negate: rng.Intn(2) == 0}
		case 1: // literal on the left
			return cmp(expr.CmpOp(rng.Intn(6)), lit(randVal(c.T)), col(c.Name))
		default:
			return cmp(expr.CmpOp(rng.Intn(6)), col(c.Name), lit(randVal(c.T)))
		}
	}
	var randPred func(depth int) expr.Expr
	randPred = func(depth int) expr.Expr {
		if depth <= 0 || rng.Intn(3) == 0 {
			return randLeaf()
		}
		switch rng.Intn(3) {
		case 0:
			return &expr.And{L: randPred(depth - 1), R: randPred(depth - 1)}
		case 1:
			return &expr.Or{L: randPred(depth - 1), R: randPred(depth - 1)}
		default:
			return &expr.Not{E: randPred(depth - 1)}
		}
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{
				randVal(types.Int64), randVal(types.Float64),
				randVal(types.Varchar), randVal(types.Bool),
			}
		}
		where := randPred(3)
		b := mkBatch(t, schema, rows)
		want := interpretSel(t, where, b, b.Sel)
		p := Compile(where, schema, nil)
		if err := p.FilterBatch(b); err != nil {
			t.Fatalf("trial %d (%s): %v", trial, where.SQL(), err)
		}
		if !selEqual(b.Sel, want) {
			t.Fatalf("trial %d: predicate %s\nvectorized %v\ninterpreted %v",
				trial, where.SQL(), b.Sel, want)
		}
	}
}

func TestCompileNilPredicate(t *testing.T) {
	p := Compile(nil, intSchema(), nil)
	if p.NumKernels() != 0 || p.conjuncts != nil {
		t.Fatalf("nil predicate should be a pass-through")
	}
	rows := []types.Row{
		{types.IntValue(1), types.FloatValue(0), types.StringValue(""), types.BoolValue(false)},
	}
	b := mkBatch(t, intSchema(), rows)
	if err := p.FilterBatch(b); err != nil {
		t.Fatal(err)
	}
	if len(b.Sel) != 1 {
		t.Fatalf("pass-through dropped rows: %v", b.Sel)
	}
}
