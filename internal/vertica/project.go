package vertica

import (
	"fmt"
	"sort"
	"strings"

	"vsfabric/internal/expr"
	"vsfabric/internal/types"
	"vsfabric/internal/vexec"
	"vsfabric/internal/vsql"
)

// This file holds what runs downstream of the first boxing operator — scalar
// projection and ordering over rows — and the validation of an aggregation.

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

// orderRows sorts the result set by the ORDER BY keys (NULLs first, per the
// engine's comparison semantics).
func orderRows(rows []types.Row, idx []int, keys []vsql.OrderItem) {
	sort.SliceStable(rows, func(a, b int) bool {
		for i, k := range keys {
			c := types.Compare(rows[a][idx[i]], rows[b][idx[i]])
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
}

// rowEval computes one output cell from an input row.
type rowEval func(types.Row) (types.Value, error)

// projectRows evaluates the select list over each row.
func projectRows(rows []types.Row, evals []rowEval) ([]types.Row, error) {
	out := make([]types.Row, len(rows))
	for i, r := range rows {
		row := make(types.Row, len(evals))
		for j, ev := range evals {
			v, err := ev(r)
			if err != nil {
				return nil, err
			}
			row[j] = v
		}
		out[i] = row
	}
	return out, nil
}

// selectShape resolves non-aggregate select items to output columns and
// row-evaluator closures.
func selectShape(items []vsql.SelectItem, schema types.Schema) (types.Schema, []rowEval, error) {
	var outSchema types.Schema
	var evals []rowEval
	for _, it := range items {
		if it.Star {
			for ci, c := range schema.Cols {
				ci := ci
				outSchema.Cols = append(outSchema.Cols, c)
				evals = append(evals, func(r types.Row) (types.Value, error) { return r[ci], nil })
			}
			continue
		}
		e := it.Expr
		for _, c := range e.Columns(nil) {
			if schema.ColIndex(c) < 0 {
				return types.Schema{}, nil, fmt.Errorf("vertica: column %q does not exist", c)
			}
		}
		name := it.Alias
		if name == "" {
			name = exprName(e)
		}
		outSchema.Cols = append(outSchema.Cols, types.Column{Name: name, T: inferType(e, schema)})
		sc := schema
		evals = append(evals, func(r types.Row) (types.Value, error) { return e.Eval(r, &sc) })
	}
	return outSchema, evals, nil
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

// inferType best-effort types an expression for result schemas.
func inferType(e expr.Expr, schema types.Schema) types.Type {
	switch n := e.(type) {
	case *expr.Col:
		if i := schema.ColIndex(n.Name); i >= 0 {
			return schema.Cols[i].T
		}
		return types.Unknown
	case *expr.Lit:
		return n.V.T
	case *expr.HashFn, *expr.ModFn:
		return types.Int64
	case *expr.Cmp, *expr.And, *expr.Or, *expr.Not, *expr.IsNull:
		return types.Bool
	case *expr.Arith:
		lt, rt := inferType(n.L, schema), inferType(n.R, schema)
		if lt == types.Int64 && rt == types.Int64 {
			return types.Int64
		}
		return types.Float64
	case *expr.FuncCall:
		return types.Float64 // scoring UDxs return numbers; refined at runtime
	default:
		return types.Unknown
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
				at := inferType(it.Arg, schema)
				if it.Agg == vsql.AggMin || it.Agg == vsql.AggMax || (it.Agg == vsql.AggSum && at == types.Int64) {
					t = at
				}
			}
			ap.out.Cols = append(ap.out.Cols, types.Column{Name: name, T: t})
			ap.items = append(ap.items, aggItemPlan{agg: it.Agg, arg: it.Arg, aggIdx: len(ap.spec.Aggs), groupCol: -1})
			// A plain column of the input runs on its typed vector; any other
			// argument is interpreted per row inside the kernel.
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
