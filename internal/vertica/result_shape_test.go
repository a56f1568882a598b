package vertica

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"vsfabric/internal/expr"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vertica/scantest"
	"vsfabric/internal/vexec"
	"vsfabric/internal/vsql"
)

// sortInput cuts n random rows (duplicate-heavy keys, NULLs in every column)
// into several batches, each selecting a random ascending subset of its rows.
func sortInput(rng *rand.Rand, schema types.Schema, n int) []*storage.Batch {
	var batches []*storage.Batch
	for n > 0 {
		size := 1 + rng.Intn(n)
		n -= size
		rows := make([]types.Row, size)
		for i := range rows {
			rows[i] = types.Row{
				types.IntValue(int64(rng.Intn(4))),
				types.FloatValue(float64(rng.Intn(3)) / 2),
				types.StringValue([]string{"ant", "bee", ""}[rng.Intn(3)]),
				types.IntValue(int64(len(batches)*1000 + i)), // unique: exposes any tie broken differently
			}
			for j := 0; j < 3; j++ {
				if rng.Intn(5) == 0 {
					rows[i][j] = types.NullValue(schema.Cols[j].T)
				}
			}
		}
		cols, err := storage.ColumnsFromRows(rows, schema)
		if err != nil {
			panic(err)
		}
		var sel []int32
		for i := range rows {
			if rng.Intn(4) > 0 {
				sel = append(sel, int32(i))
			}
		}
		batches = append(batches, &storage.Batch{Schema: schema, Cols: cols, Sel: sel})
	}
	return batches
}

// TestBatchSortMatchesReferenceOrder pits the sort node — densify, then sort
// one selection vector — against the oracle's row sort over multi-batch,
// NULL-bearing, duplicate-key input: the same rows in the same stable order,
// NULLs first, for every key list, and still so when a second sort and a LIMIT
// read the permuted selection.
func TestBatchSortMatchesReferenceOrder(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "k", T: types.Int64}, types.Column{Name: "f", T: types.Float64},
		types.Column{Name: "s", T: types.Varchar}, types.Column{Name: "seq", T: types.Int64})
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		var keys []vsql.OrderItem
		for _, c := range rng.Perm(3)[:1+rng.Intn(3)] {
			keys = append(keys, vsql.OrderItem{Col: schema.Cols[c].Name, Desc: rng.Intn(2) == 0})
		}
		idx, err := orderIndexes(schema, keys)
		if err != nil {
			t.Fatal(err)
		}
		in := sortInput(rng, schema, 1+rng.Intn(300))
		want := storage.Materialize(in)
		orderRows(want, idx, keys)

		n := &planNode{op: opSort, schema: schema, orderBy: keys, sortIdx: idx}
		got, err := sortBatches(n, in)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("trial %d keys %v", trial, keys)
		if d := scantest.Diff(schema, storage.Materialize(got), schema, want); d != "" {
			t.Fatalf("%s: %s", label, d)
		}
		// A sorted batch is an input like any other: sorted again by its last
		// key alone, ties keep the first sort's order; cut by a LIMIT, the first
		// rows win.
		last := &planNode{op: opSort, schema: schema, orderBy: keys[len(keys)-1:], sortIdx: idx[len(idx)-1:]}
		orderRows(want, last.sortIdx, last.orderBy)
		if got, err = sortBatches(last, got); err != nil {
			t.Fatal(err)
		}
		if d := scantest.Diff(schema, storage.Materialize(got), schema, want); d != "" {
			t.Fatalf("%s, sorted again: %s", label, d)
		}
		if limit := int64(rng.Intn(len(want) + 1)); limit < int64(len(want)) {
			if d := scantest.Diff(schema, storage.Materialize(limitBatches(got, limit)), schema, want[:limit]); d != "" {
				t.Fatalf("%s, LIMIT %d: %s", label, limit, d)
			}
		}
	}
}

// TestResultVectorsAllocatePerColumn: what a group-by and a computed select
// list add on top of their kernels is a handful of allocations per output
// column — the vectors — never one per cell or per row.
func TestResultVectorsAllocatePerColumn(t *testing.T) {
	const rows, groups = 10_000, 100
	schema := types.NewSchema(types.Column{Name: "g", T: types.Int64}, types.Column{Name: "v", T: types.Float64},
		types.Column{Name: "name", T: types.Varchar})
	g, v, name := make([]int64, rows), make([]float64, rows), make([]string, rows)
	for i := range g {
		g[i], v[i], name[i] = int64(i%groups), float64(i)/2, "n"
	}
	in := []*storage.Batch{{Schema: schema, Sel: storage.IdentitySel(rows),
		Cols: []storage.Column{&storage.Int64Column{Vals: g}, &storage.Float64Column{Vals: v}, &storage.StringColumn{Vals: name}}}}

	st, err := vsql.Parse("SELECT g, COUNT(*), SUM(v), AVG(v) FROM t GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	ap, err := buildAggPlan(st.(*vsql.Select), schema)
	if err != nil {
		t.Fatal(err)
	}
	node := &planNode{op: opGroupBy, agg: ap, schema: ap.out}
	kernel := testing.AllocsPerRun(5, func() {
		ha := vexec.NewHashAgg(ap.spec, schema)
		if err := ha.Consume(in[0]); err != nil || ha.NumGroups() != groups {
			t.Fatalf("%d groups, %v", ha.NumGroups(), err)
		}
	})
	total := testing.AllocsPerRun(5, func() {
		if out, err := runGroupBy(context.Background(), node, in); err != nil || storage.SelectedRows(out) != groups {
			t.Fatalf("group-by: %d rows, %v", storage.SelectedRows(out), err)
		}
	})
	t.Logf("group-by, %d groups x %d columns: %.0f allocations, %.0f of them the kernel's", groups, len(ap.out.Cols), total, kernel)
	if extra := total - kernel; extra > float64(8*len(ap.out.Cols)+8) {
		t.Errorf("emitting %d groups x %d columns cost %.0f allocations: per cell, not per column", groups, len(ap.out.Cols), extra)
	}

	plus := &expr.Arith{Op: expr.Add, L: &expr.Col{Name: "g"}, R: &expr.Lit{V: types.IntValue(1)}}
	twice := &expr.Arith{Op: expr.Mul, L: &expr.Col{Name: "v"}, R: &expr.Lit{V: types.IntValue(2)}}
	out, proj, err := planProject([]vsql.SelectItem{{Expr: plus}, {Expr: twice}, {Expr: &expr.Col{Name: "name"}}}, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if b, err := projectBatches(context.Background(), out, proj, in); err != nil || storage.SelectedRows(b) != rows {
			t.Fatalf("projection: %d rows, %v", storage.SelectedRows(b), err)
		}
	})
	t.Logf("projection, %d rows x %d columns: %.0f allocations", rows, len(proj), allocs)
	if allocs > float64(8*len(proj)+8) {
		t.Errorf("projecting %d rows x %d columns cost %.0f allocations: per cell, not per column", rows, len(proj), allocs)
	}
}
