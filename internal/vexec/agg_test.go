package vexec

import (
	"fmt"
	"math/rand"
	"testing"

	"vsfabric/internal/expr"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

func i64(v int64) types.Value   { return types.IntValue(v) }
func f64(v float64) types.Value { return types.FloatValue(v) }
func str(v string) types.Value  { return types.StringValue(v) }

func wantValue(t *testing.T, got, want types.Value, what string) {
	t.Helper()
	if got.Null != want.Null || (!got.Null && (got.T != want.T || types.Compare(got, want) != 0)) {
		t.Fatalf("%s = %v (T=%v null=%v), want %v (T=%v null=%v)",
			what, got, got.T, got.Null, want, want.T, want.Null)
	}
}

func TestHashAggInt64FastPath(t *testing.T) {
	schema := intSchema()
	b := mkBatch(t, schema, []types.Row{
		{i64(1), f64(1.5), str("a"), types.BoolValue(true)},
		{i64(2), f64(2.0), str("b"), types.BoolValue(true)},
		{i64(1), f64(2.5), str("c"), types.BoolValue(true)},
		{types.NullValue(types.Int64), f64(10.0), str("d"), types.BoolValue(true)},
		{i64(2), types.NullValue(types.Float64), str("e"), types.BoolValue(true)},
	})
	spec := AggSpec{
		GroupCols: []int{0},
		Aggs: []AggExpr{
			{Op: AggCount, Col: -1}, // COUNT(*)
			{Op: AggSum, Col: 1},
			{Op: AggMin, Col: 1},
			{Op: AggAvg, Col: 1},
		},
	}
	h := NewHashAgg(spec, schema)
	if h.FastPath() != "int64" {
		t.Fatalf("fast path = %q, want int64", h.FastPath())
	}
	h.Consume(b)
	if h.NumGroups() != 3 {
		t.Fatalf("groups = %d, want 3", h.NumGroups())
	}
	// First-seen group order: 1, 2, NULL.
	wantValue(t, h.GroupKey(0)[0], i64(1), "key[0]")
	wantValue(t, h.GroupKey(1)[0], i64(2), "key[1]")
	wantValue(t, h.GroupKey(2)[0], types.NullValue(types.Int64), "key[2]")

	wantValue(t, h.AggResult(0, 0), i64(2), "g1 count")
	wantValue(t, h.AggResult(0, 1), f64(4.0), "g1 sum")
	wantValue(t, h.AggResult(0, 2), f64(1.5), "g1 min")
	wantValue(t, h.AggResult(0, 3), f64(2.0), "g1 avg")

	wantValue(t, h.AggResult(1, 0), i64(2), "g2 count")
	wantValue(t, h.AggResult(1, 1), f64(2.0), "g2 sum") // NULL input skipped
	wantValue(t, h.AggResult(1, 3), f64(2.0), "g2 avg") // / 1 non-null, not / 2

	wantValue(t, h.AggResult(2, 0), i64(1), "null-key count")
	wantValue(t, h.AggResult(2, 1), f64(10.0), "null-key sum")

	if h.Rows() != 5 || h.FallbackRows() != 0 {
		t.Fatalf("rows=%d fallback=%d", h.Rows(), h.FallbackRows())
	}
}

func TestHashAggIntSumStaysInt(t *testing.T) {
	schema := intSchema()
	b := mkBatch(t, schema, []types.Row{
		{i64(5), f64(0), str(""), types.BoolValue(false)},
		{i64(7), f64(0), str(""), types.BoolValue(false)},
	})
	h := NewHashAgg(AggSpec{Aggs: []AggExpr{
		{Op: AggSum, Col: 0},
		{Op: AggMax, Col: 0},
		{Op: AggCount, Col: 0},
	}}, schema)
	h.Consume(b)
	wantValue(t, h.AggResult(0, 0), i64(12), "sum(int)")
	wantValue(t, h.AggResult(0, 1), i64(7), "max(int)")
	wantValue(t, h.AggResult(0, 2), i64(2), "count(int)")
}

func TestHashAggGenericKeys(t *testing.T) {
	schema := intSchema()
	// GROUP BY (s, x): a string "NULL" must stay distinct from a NULL key.
	b := mkBatch(t, schema, []types.Row{
		{i64(1), f64(1), str("NULL"), types.BoolValue(false)},
		{i64(1), f64(2), types.NullValue(types.Varchar), types.BoolValue(false)},
		{i64(1), f64(3), str("NULL"), types.BoolValue(false)},
	})
	h := NewHashAgg(AggSpec{
		GroupCols: []int{2, 0},
		Aggs:      []AggExpr{{Op: AggSum, Col: 1}},
	}, schema)
	if h.FastPath() != "generic" {
		t.Fatalf("fast path = %q, want generic", h.FastPath())
	}
	h.Consume(b)
	if h.NumGroups() != 2 {
		t.Fatalf("groups = %d, want 2 (\"NULL\" and NULL collided?)", h.NumGroups())
	}
	wantValue(t, h.GroupKey(0)[0], str("NULL"), "g0 key")
	wantValue(t, h.GroupKey(1)[0], types.NullValue(types.Varchar), "g1 key")
	wantValue(t, h.AggResult(0, 0), f64(4), "g0 sum")
	wantValue(t, h.AggResult(1, 0), f64(2), "g1 sum")
}

func TestHashAggEmptyGlobalGroup(t *testing.T) {
	schema := intSchema()
	h := NewHashAgg(AggSpec{Aggs: []AggExpr{
		{Op: AggCount, Col: -1},
		{Op: AggSum, Col: 0},
		{Op: AggMin, Col: 2},
	}}, schema)
	// Zero batches consumed: a global aggregate still yields one row.
	if h.NumGroups() != 1 {
		t.Fatalf("groups = %d, want 1", h.NumGroups())
	}
	if h.FastPath() != "global" {
		t.Fatalf("fast path = %q, want global", h.FastPath())
	}
	wantValue(t, h.AggResult(0, 0), i64(0), "count over nothing")
	if !h.AggResult(0, 1).Null || !h.AggResult(0, 2).Null {
		t.Fatalf("sum/min over nothing should be NULL: %v %v", h.AggResult(0, 1), h.AggResult(0, 2))
	}
}

func TestHashAggManyGroupsGrowsTable(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "k", T: types.Int64})
	rows := make([]types.Row, 1000)
	for i := range rows {
		rows[i] = types.Row{i64(int64(i % 300))}
	}
	b := mkBatch(t, schema, rows)
	h := NewHashAgg(AggSpec{
		GroupCols: []int{0},
		Aggs:      []AggExpr{{Op: AggCount, Col: -1}},
	}, schema)
	h.Consume(b)
	h.Consume(b)
	if h.NumGroups() != 300 {
		t.Fatalf("groups = %d, want 300", h.NumGroups())
	}
	for g := 0; g < 300; g++ {
		// First-seen order means group g has key g even after table growth.
		wantValue(t, h.GroupKey(g)[0], i64(int64(g)), "grown-table key")
	}
	// Per batch, keys 0..99 appear 4 times and 100..299 appear 3 times.
	wantValue(t, h.AggResult(0, 0), i64(8), "count(0) after two batches")
	wantValue(t, h.AggResult(299, 0), i64(6), "count(299) after two batches")
}

// TestHashAggInterpretedArgument: an expression argument is evaluated per
// selected row and fed to the same accumulators. Its values may change kind
// from row to row; MIN/MAX/SUM then carry on in float, as types.Compare
// orders INTEGER against FLOAT. Each row counts as a fallback row once,
// however many arguments are interpreted, and an evaluation error surfaces.
func TestHashAggInterpretedArgument(t *testing.T) {
	schema := intSchema()
	b := mkBatch(t, schema, []types.Row{
		{i64(1), f64(4), str("a"), types.BoolValue(true)},
		{i64(1), f64(0.5), str("b"), types.BoolValue(true)},
		{i64(2), types.NullValue(types.Float64), str("c"), types.BoolValue(true)},
		{i64(1), f64(9), str("d"), types.BoolValue(true)},
	})
	// x for the first row of a group, f afterwards: INTEGER then FLOAT values.
	drift := &expr.FuncCall{Name: "DRIFT", Args: []expr.Expr{&expr.Col{Name: "s"}, &expr.Col{Name: "x"}, &expr.Col{Name: "f"}},
		Impl: func(args []types.Value, _ map[string]string) (types.Value, error) {
			if args[0].S == "a" || args[0].S == "c" {
				return args[1], nil
			}
			return args[2], nil
		}}
	plus := &expr.Arith{Op: expr.Add, L: &expr.Col{Name: "f"}, R: &expr.Lit{V: i64(1)}}
	h := NewHashAgg(AggSpec{GroupCols: []int{0}, Aggs: []AggExpr{
		{Op: AggSum, Col: -1, Arg: plus}, {Op: AggMin, Col: -1, Arg: drift}, {Op: AggMax, Col: -1, Arg: drift},
		{Op: AggCount, Col: -1, Arg: plus}, {Op: AggCount, Col: -1},
	}}, schema)
	if err := h.Consume(b); err != nil {
		t.Fatal(err)
	}
	wantValue(t, h.AggResult(0, 0), f64(16.5), "SUM(f + 1)")
	wantValue(t, h.AggResult(0, 1), f64(0.5), "MIN over 1, 0.5, 9.0")
	wantValue(t, h.AggResult(0, 2), f64(9), "MAX over 1, 0.5, 9.0")
	wantValue(t, h.AggResult(1, 0), types.NullValue(types.Float64), "SUM of NULL")
	wantValue(t, h.AggResult(1, 1), f64(2), "MIN over 2, a FLOAT vector's")
	wantValue(t, h.AggResult(1, 3), i64(0), "COUNT(f + 1) skips NULL")
	wantValue(t, h.AggResult(1, 4), i64(1), "COUNT(*)")
	if h.Rows() != 4 || h.FallbackRows() != 4 {
		t.Fatalf("rows %d, fallback rows %d; want 4 and 4", h.Rows(), h.FallbackRows())
	}

	div := &expr.Arith{Op: expr.Div, L: &expr.Lit{V: i64(1)}, R: &expr.Arith{Op: expr.Sub, L: &expr.Col{Name: "x"}, R: &expr.Lit{V: i64(2)}}}
	h = NewHashAgg(AggSpec{Aggs: []AggExpr{{Op: AggSum, Col: -1, Arg: div}}}, schema)
	if err := h.Consume(b); err == nil {
		t.Fatal("division by zero in an aggregate argument did not surface")
	}
}

// TestHashAggRefusesMistypedVector: a vector that is not of its schema
// column's type fails the batch, as a group key or as an aggregate's argument,
// rather than being read as another type's accumulator state.
func TestHashAggRefusesMistypedVector(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "k", T: types.Int64}, types.Column{Name: "f", T: types.Float64})
	ints := &storage.Int64Column{Vals: []int64{1, 2}}
	floats := &storage.Float64Column{Vals: []float64{0.5, 1.5}}
	for _, c := range []struct {
		what string
		spec AggSpec
		cols []storage.Column
	}{
		{"FLOAT vector as an INTEGER key", AggSpec{GroupCols: []int{0}, Aggs: []AggExpr{{Op: AggCount, Col: -1}}}, []storage.Column{floats, floats}},
		{"INTEGER vector as a FLOAT argument", AggSpec{Aggs: []AggExpr{{Op: AggMin, Col: 1}}}, []storage.Column{ints, ints}},
		{"FLOAT vector as an INTEGER argument", AggSpec{Aggs: []AggExpr{{Op: AggSum, Col: 0}}}, []storage.Column{floats, floats}},
	} {
		c.spec.Aggs = append(c.spec.Aggs, AggExpr{Op: AggSum, Col: 1})
		b := &storage.Batch{Schema: schema, Cols: c.cols, Sel: []int32{0, 1}}
		if err := NewHashAgg(c.spec, schema).Consume(b); err == nil {
			t.Errorf("%s: consumed", c.what)
		}
	}
}

// updateValue is the boxed reference the typed loops are diffed against: one
// value at a time, through the full update of its type.
func (a *aggAcc) updateValue(v types.Value) {
	if v.Null {
		return
	}
	switch v.T {
	case types.Int64:
		a.updateInt(v.I)
	case types.Float64:
		a.updateFloat(v.F)
	case types.Varchar:
		a.updateString(v.S)
	case types.Bool:
		a.updateBool(v.B)
	}
}

// TestHashAggTypedLoopsMatchBoxedReference diffs every key path and every
// op's typed loop against the boxed reference: one accumulator per (group,
// aggregate) fed each selected row's value through updateValue. Batches carry
// NULLs, narrowed selections and runs of equal keys.
func TestHashAggTypedLoopsMatchBoxedReference(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "k", T: types.Int64}, types.Column{Name: "name", T: types.Varchar},
		types.Column{Name: "x", T: types.Int64}, types.Column{Name: "f", T: types.Float64},
		types.Column{Name: "s", T: types.Varchar}, types.Column{Name: "b", T: types.Bool})
	names := []string{"alpha", "NULL", "", "7", "2.5"}
	rng := rand.New(rand.NewSource(5))
	nulls := func(n int) []bool {
		if rng.Intn(3) == 0 {
			return nil
		}
		out := make([]bool, n)
		for i := range out {
			out[i] = rng.Intn(5) == 0
		}
		return out
	}
	ints := func(n int, lo, span int64) storage.Column {
		if rng.Intn(3) == 0 {
			// Runs of one to five equal values, no NULLs.
			c := &storage.Int64Column{Vals: make([]int64, n)}
			for at := 0; at < n; {
				end := min(n, at+1+rng.Intn(5))
				v := lo + rng.Int63n(span)
				for ; at < end; at++ {
					c.Vals[at] = v
				}
			}
			return c
		}
		c := &storage.Int64Column{Vals: make([]int64, n), Nulls: nulls(n)}
		for i := range c.Vals {
			c.Vals[i] = lo + rng.Int63n(span)
		}
		return c
	}
	floats := func(n int) storage.Column {
		c := &storage.Float64Column{Vals: make([]float64, n), Nulls: nulls(n)}
		for i := range c.Vals {
			c.Vals[i] = float64(rng.Intn(2000)-1000) / 8
		}
		return c
	}
	batch := func() *storage.Batch {
		n := 1 + rng.Intn(60)
		str := &storage.StringColumn{Vals: make([]string, n), Nulls: nulls(n)}
		for i := range str.Vals {
			str.Vals[i] = names[rng.Intn(len(names))]
		}
		bools := &storage.BoolColumn{Vals: make([]bool, n), Nulls: nulls(n)}
		for i := range bools.Vals {
			bools.Vals[i] = rng.Intn(2) == 0
		}
		x, f := ints(n, -50, 100), floats(n)
		var sel []int32
		for i := 0; i < n; i++ {
			if rng.Intn(4) != 0 {
				sel = append(sel, int32(i))
			}
		}
		return &storage.Batch{Schema: schema, Cols: []storage.Column{ints(n, 0, 12), str, x, f, str, bools}, Sel: sel}
	}
	spec := AggSpec{Aggs: []AggExpr{{Op: AggCount, Col: -1}}}
	for _, op := range []AggOp{AggCount, AggSum, AggAvg, AggMin, AggMax} {
		for col := 2; col < len(schema.Cols); col++ {
			spec.Aggs = append(spec.Aggs, AggExpr{Op: op, Col: col})
		}
	}
	for _, keys := range []struct {
		cols []int
		path string
	}{{nil, "global"}, {[]int{0}, "int64"}, {[]int{1}, "varchar"}, {[]int{1, 0}, "generic"}} {
		spec.GroupCols = keys.cols
		for trial := 0; trial < 20; trial++ {
			h := NewHashAgg(spec, schema)
			if h.FastPath() != keys.path {
				t.Fatalf("fast path %q, want %q", h.FastPath(), keys.path)
			}
			type group struct {
				key  []types.Value
				accs []aggAcc
			}
			var order []string
			ref := map[string]*group{}
			if keys.cols == nil {
				order, ref[""] = []string{""}, &group{accs: make([]aggAcc, len(spec.Aggs))}
			}
			for nb := rng.Intn(6); nb >= 0; nb-- {
				b := batch()
				if err := h.Consume(b); err != nil {
					t.Fatal(err)
				}
				for _, i := range b.Sel {
					var id string
					var key []types.Value
					for _, gc := range keys.cols {
						v := b.Cols[gc].Get(int(i))
						key = append(key, v)
						id += fmt.Sprintf("%v/%q|", v.Null, v.String())
					}
					g := ref[id]
					if g == nil {
						g = &group{key: key, accs: make([]aggAcc, len(spec.Aggs))}
						ref[id] = g
						order = append(order, id)
					}
					for j, a := range spec.Aggs {
						if a.Col < 0 {
							g.accs[j].count++
						} else {
							g.accs[j].updateValue(b.Cols[a.Col].Get(int(i)))
						}
					}
				}
			}
			if h.NumGroups() != len(order) {
				t.Fatalf("%s keys: %d groups, want %d", keys.path, h.NumGroups(), len(order))
			}
			for g, id := range order {
				for x, v := range ref[id].key {
					wantValue(t, h.GroupKey(g)[x], v, fmt.Sprintf("%s keys: group %d key %d", keys.path, g, x))
				}
				for j, a := range spec.Aggs {
					argT := types.Unknown
					if a.Col >= 0 {
						argT = schema.Cols[a.Col].T
					}
					wantValue(t, h.AggResult(g, j), ref[id].accs[j].result(a.Op, argT),
						fmt.Sprintf("%s keys: group %d, op %d over column %d", keys.path, g, a.Op, a.Col))
				}
			}
		}
	}
}
