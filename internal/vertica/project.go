package vertica

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"vsfabric/internal/expr"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vexec"
	"vsfabric/internal/vsql"
)

// This file holds the operators that build new vectors above the relations —
// a computed select list and ORDER BY — and the validation of an aggregation.
// Each builds vectors of its node's declared types: the plan-time schema is
// authoritative (vexec.CompileExpr types an expression for it and for the
// vector it builds by one rule), and a value it cannot hold fails the
// statement (types.Coerce).

// orderIndexes resolves ORDER BY keys against the result schema.
func orderIndexes(schema types.Schema, keys []vsql.OrderItem) ([]int, error) {
	idx := make([]int, len(keys))
	for i, k := range keys {
		if idx[i] = schema.ColIndex(k.Col); idx[i] < 0 {
			return nil, fmt.Errorf("vertica: ORDER BY column %q not in result", k.Col)
		}
	}
	return idx, nil
}

// sortBatches runs a sort node: the input densifies into one batch and only
// that batch's selection vector is sorted — stably, by the ORDER BY keys in
// types.Compare order (NULLs first). Whatever reads the batch next — the wire's
// gather encoder, Materialize, LIMIT — follows the selection vector.
func sortBatches(n *planNode, batches []*storage.Batch) ([]*storage.Batch, error) {
	cols, rows, err := storage.DenseColumns(n.schema, batches)
	if err != nil || rows == 0 {
		return nil, err
	}
	// A copy: the sort permutes it, and IdentitySel's vector is shared.
	sel := slices.Clone(storage.IdentitySel(rows))
	sort.SliceStable(sel, func(a, b int) bool {
		for i, k := range n.orderBy {
			key := cols[n.sortIdx[i]]
			c := types.Compare(key.Get(int(sel[a])), key.Get(int(sel[b])))
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return []*storage.Batch{{Schema: n.schema, Cols: cols, Sel: sel}}, nil
}

// projCol is one output column of a computed select list: input column col
// passed through as a vector, or (vec != nil) an expression compiled to one.
type projCol struct {
	col int
	vec vexec.Vec
}

// planProject resolves non-aggregate select items to the output schema and
// each output column's source. star lists the input columns `*` expands to, in
// order (a join's, in FROM-clause order); nil expands it to every column in
// schema order.
func planProject(items []vsql.SelectItem, schema types.Schema, star []int) (types.Schema, []projCol, error) {
	var out types.Schema
	var proj []projCol
	for _, it := range items {
		if it.Star {
			for k := range schema.Cols {
				ci := k
				if star != nil {
					ci = star[k]
				}
				out.Cols = append(out.Cols, schema.Cols[ci])
				proj = append(proj, projCol{col: ci})
			}
			continue
		}
		for _, c := range it.Expr.Columns(nil) {
			if schema.ColIndex(c) < 0 {
				return types.Schema{}, nil, fmt.Errorf("vertica: column %q does not exist", c)
			}
		}
		name := it.Alias
		if name == "" {
			name = exprName(it.Expr)
		}
		vec, t := vexec.CompileExpr(it.Expr, schema)
		out.Cols = append(out.Cols, types.Column{Name: name, T: t})
		if c, bare := it.Expr.(*expr.Col); bare {
			proj = append(proj, projCol{col: schema.ColIndex(c.Name)})
		} else {
			proj = append(proj, projCol{vec: vec})
		}
	}
	return out, proj, nil
}

// passThrough returns the input column indexes, in output order (repeats
// allowed), of a projection whose every column is an input column as it stands
// — a column pick, which leaves the engine as the input's own vectors — else nil.
func passThrough(proj []projCol) []int {
	cols := make([]int, len(proj))
	for j, pc := range proj {
		if pc.vec != nil {
			return nil
		}
		cols[j] = pc.col
	}
	return cols
}

// projectBatches runs a computed select list (or an UPDATE's SET list, which
// is one): each input batch leaves as one batch over the same rows, its
// columns a passed-through column's own vector or the one an expression's
// compiled form builds, nothing copied — a vector of another type than its
// column (an UPDATE assigning an INTEGER to a FLOAT column) is cast
// (vexec.Cast). Cancelling ctx stops it between batches.
func projectBatches(ctx context.Context, schema types.Schema, proj []projCol, batches []*storage.Batch) ([]*storage.Batch, error) {
	out := make([]*storage.Batch, 0, len(batches))
	for _, b := range batches {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(b.Sel) == 0 {
			continue
		}
		p := &storage.Batch{Schema: schema, Cols: make([]storage.Column, len(proj)), Sel: b.Sel}
		for j, pc := range proj {
			var col storage.Column
			var err error
			if pc.vec == nil {
				col = b.Cols[pc.col]
			} else if col, err = pc.vec(b, b.Sel); err != nil {
				return nil, err
			}
			if p.Cols[j], err = vexec.Cast(col, schema.Cols[j].T, b.Sel); err != nil {
				return nil, err
			}
		}
		out = append(out, p)
	}
	return out, nil
}

func exprName(e expr.Expr) string {
	switch n := e.(type) {
	case *expr.Col:
		return n.Name
	case *expr.FuncCall:
		return strings.ToLower(n.Name)
	case *expr.HashFn:
		return "hash"
	case *expr.ModFn:
		return "mod"
	default:
		return "?column?"
	}
}

// aggItemPlan is one select item of an aggregation: an aggregate function
// over an argument expression (kernel aggregate spec.Aggs[aggIdx]), or
// (groupCol >= 0) a plain grouping column.
type aggItemPlan struct {
	agg      vsql.AggFn
	arg      expr.Expr
	aggIdx   int
	groupCol int // index into groupIdx for plain columns
}

// aggPlan is a validated aggregation: one item plan per select item, the
// GROUP BY column indexes into the input schema, both schemas, and the
// same aggregation as the hash-aggregation kernel takes it. The test oracle's
// reference aggregate runs from the items too, so both type results
// identically.
type aggPlan struct {
	items    []aggItemPlan
	groupIdx []int
	in, out  types.Schema
	spec     vexec.AggSpec
}

// buildAggPlan validates an aggregation's select items against the input
// schema.
func buildAggPlan(st *vsql.Select, schema types.Schema) (*aggPlan, error) {
	ap := &aggPlan{in: schema, groupIdx: make([]int, 0, len(st.GroupBy)), items: make([]aggItemPlan, 0, len(st.Items))}
	for _, g := range st.GroupBy {
		i := schema.ColIndex(g)
		if i < 0 {
			return nil, fmt.Errorf("vertica: GROUP BY column %q not found", g)
		}
		ap.groupIdx = append(ap.groupIdx, i)
	}
	ap.spec.GroupCols = ap.groupIdx
	for _, it := range st.Items {
		switch {
		case it.Star:
			return nil, fmt.Errorf("vertica: SELECT * cannot be mixed with aggregates")
		case it.Agg != "":
			op, ok := aggOps[it.Agg]
			if !ok {
				return nil, fmt.Errorf("vertica: unknown aggregate %q", it.Agg)
			}
			name := it.Alias
			if name == "" {
				name = strings.ToLower(string(it.Agg))
			}
			t := types.Float64
			if it.Agg == vsql.AggCount {
				t = types.Int64
			} else if it.Arg != nil {
				at := vexec.TypeOf(it.Arg, schema)
				if it.Agg == vsql.AggMin || it.Agg == vsql.AggMax || (it.Agg == vsql.AggSum && at == types.Int64) {
					t = at
				}
			}
			ap.out.Cols = append(ap.out.Cols, types.Column{Name: name, T: t})
			ap.items = append(ap.items, aggItemPlan{agg: it.Agg, arg: it.Arg, aggIdx: len(ap.spec.Aggs), groupCol: -1})
			// A plain column of the input runs on its typed vector; any other
			// argument is compiled inside the kernel.
			ae := vexec.AggExpr{Op: op, Col: -1, Arg: it.Arg}
			if c, isCol := it.Arg.(*expr.Col); isCol {
				if i := schema.ColIndex(c.Name); i >= 0 {
					ae.Col, ae.Arg = i, nil
				}
			}
			ap.spec.Aggs = append(ap.spec.Aggs, ae)
		default:
			col, ok := it.Expr.(*expr.Col)
			if !ok {
				return nil, fmt.Errorf("vertica: non-aggregate select item must be a grouping column")
			}
			gi := -1
			for k, idx := range ap.groupIdx {
				if schema.ColIndex(col.Name) == idx {
					gi = k
					break
				}
			}
			if gi < 0 {
				return nil, fmt.Errorf("vertica: column %q must appear in GROUP BY", col.Name)
			}
			name := it.Alias
			if name == "" {
				name = col.Name
			}
			ap.out.Cols = append(ap.out.Cols, types.Column{Name: name, T: schema.Cols[ap.groupIdx[gi]].T})
			ap.items = append(ap.items, aggItemPlan{groupCol: gi})
		}
	}
	return ap, nil
}
