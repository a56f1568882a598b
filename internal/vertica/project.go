package vertica

import (
	"fmt"
	"sort"
	"strings"

	"vsfabric/internal/expr"
	"vsfabric/internal/types"
	"vsfabric/internal/vsql"
)

// This file holds the row-native operators a plan's project, group-by and
// sort nodes run: scalar projection, row-at-a-time aggregation, ordering.

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

// aggState is one aggregate accumulator.
type aggState struct {
	count   int64
	sum     float64
	sumInt  int64
	intSum  bool
	min     types.Value
	max     types.Value
	seenAny bool
}

func (a *aggState) update(fn vsql.AggFn, v types.Value, countStar bool) {
	if fn == vsql.AggCount {
		if countStar || !v.Null {
			a.count++
		}
		return
	}
	if v.Null {
		return
	}
	if !a.seenAny {
		a.min, a.max = v, v
		a.intSum = v.T == types.Int64
		a.seenAny = true
	} else {
		if types.Compare(v, a.min) < 0 {
			a.min = v
		}
		if types.Compare(v, a.max) > 0 {
			a.max = v
		}
	}
	a.count++
	a.sum += v.AsFloat()
	if v.T == types.Int64 {
		a.sumInt += v.I
	} else {
		a.intSum = false
	}
}

func (a *aggState) result(fn vsql.AggFn) types.Value {
	switch fn {
	case vsql.AggCount:
		return types.IntValue(a.count)
	case vsql.AggSum:
		if !a.seenAny {
			return types.NullValue(types.Float64)
		}
		if a.intSum {
			return types.IntValue(a.sumInt)
		}
		return types.FloatValue(a.sum)
	case vsql.AggAvg:
		if a.count == 0 {
			return types.NullValue(types.Float64)
		}
		return types.FloatValue(a.sum / float64(a.count))
	case vsql.AggMin:
		if !a.seenAny {
			return types.NullValue(types.Float64)
		}
		return a.min
	case vsql.AggMax:
		if !a.seenAny {
			return types.NullValue(types.Float64)
		}
		return a.max
	default:
		return types.NullValue(types.Float64)
	}
}

// aggItemPlan is one select item of an aggregation: an aggregate function
// over an argument expression, or (groupCol >= 0) a plain grouping column.
type aggItemPlan struct {
	agg      vsql.AggFn
	arg      expr.Expr
	groupCol int // index into groupIdx for plain columns
}

// aggPlan is a validated aggregation: one item plan per select item, the
// GROUP BY column indexes into the input schema, and the output schema. The
// row-at-a-time aggregate() and the vectorized kernels both run from it, so
// both type results identically.
type aggPlan struct {
	items    []aggItemPlan
	groupIdx []int
	out      types.Schema
}

// buildAggPlan validates an aggregation's select items against the input
// schema.
func buildAggPlan(st *vsql.Select, schema types.Schema) (*aggPlan, error) {
	ap := &aggPlan{groupIdx: make([]int, 0, len(st.GroupBy)), items: make([]aggItemPlan, 0, len(st.Items))}
	for _, g := range st.GroupBy {
		i := schema.ColIndex(g)
		if i < 0 {
			return nil, fmt.Errorf("vertica: GROUP BY column %q not found", g)
		}
		ap.groupIdx = append(ap.groupIdx, i)
	}
	for _, it := range st.Items {
		switch {
		case it.Star:
			return nil, fmt.Errorf("vertica: SELECT * cannot be mixed with aggregates")
		case it.Agg != "":
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
			ap.items = append(ap.items, aggItemPlan{agg: it.Agg, arg: it.Arg, groupCol: -1})
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

// aggregate evaluates aggregates with optional GROUP BY, row at a time.
func aggregate(ap *aggPlan, rows []types.Row, schema types.Schema) ([]types.Row, error) {
	plans, groupIdx := ap.items, ap.groupIdx

	type group struct {
		key    []types.Value
		states []*aggState
	}
	groups := make(map[string]*group)
	var order []string
	keyOf := func(r types.Row) (string, []types.Value) {
		if len(groupIdx) == 0 {
			return "", nil
		}
		vals := make([]types.Value, len(groupIdx))
		var sb strings.Builder
		for k, idx := range groupIdx {
			vals[k] = r[idx]
			// The null flag keeps a NULL key distinct from the string "NULL"
			// (both render as "NULL").
			if r[idx].Null {
				sb.WriteByte('n')
			} else {
				sb.WriteByte('v')
			}
			sb.WriteString(r[idx].String())
			sb.WriteByte(0)
		}
		return sb.String(), vals
	}
	ensure := func(key string, vals []types.Value) *group {
		g, ok := groups[key]
		if !ok {
			g = &group{key: vals, states: make([]*aggState, len(plans))}
			for i := range g.states {
				g.states[i] = &aggState{}
			}
			groups[key] = g
			order = append(order, key)
		}
		return g
	}
	if len(groupIdx) == 0 {
		ensure("", nil) // global aggregate over zero rows still yields one row
	}
	for _, r := range rows {
		key, vals := keyOf(r)
		g := ensure(key, vals)
		for i, pl := range plans {
			if pl.groupCol >= 0 {
				continue
			}
			var v types.Value
			if pl.arg != nil {
				var err error
				v, err = pl.arg.Eval(r, &schema)
				if err != nil {
					return nil, err
				}
			}
			g.states[i].update(pl.agg, v, pl.arg == nil)
		}
	}
	out := make([]types.Row, 0, len(order))
	for _, key := range order {
		g := groups[key]
		row := make(types.Row, len(plans))
		for i, pl := range plans {
			if pl.groupCol >= 0 {
				row[i] = g.key[pl.groupCol]
			} else {
				row[i] = g.states[i].result(pl.agg)
			}
		}
		out = append(out, row)
	}
	return out, nil
}
