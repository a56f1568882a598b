package vertica

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"vsfabric/internal/catalog"
	"vsfabric/internal/expr"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vexec"
	"vsfabric/internal/vhash"
	"vsfabric/internal/vsql"
)

// This file is the test oracle the vectorized engine is diffed against: a
// row-at-a-time scan, a boxed hash join in syntactic order, an interpreted
// filter, a row-at-a-time aggregate, a closure-per-item projection and a row
// sort — reference operators that live only here, production runs none of
// them — in the fixed order SQL gives them. No batches, kernels, zone maps,
// pushdowns, planner or plan — everything the production path adds on top of
// "scan, join, filter, project" is absent here. What the two share is the
// typing (vexec.TypeOf, buildAggPlan) and the expression evaluator.

// oracleSelect answers a SELECT on the oracle.
func oracleSelect(t testing.TB, s *Session, sql string) *Result {
	t.Helper()
	stmt, err := vsql.Parse(sql)
	if err != nil {
		t.Fatalf("oracle parse %q: %v", sql, err)
	}
	rows, schema, err := oracleRows(s, stmt.(*vsql.Select), snapshotVis(s.cluster))
	if err != nil {
		t.Fatalf("oracle %q: %v", sql, err)
	}
	return &Result{Schema: schema, Rows: rows}
}

// oracleRows evaluates one SELECT: relations → joins → WHERE → projection.
func oracleRows(s *Session, st *vsql.Select, vis storage.Visibility) ([]types.Row, types.Schema, error) {
	if err := s.bindSelectFuncs(st); err != nil {
		return nil, types.Schema{}, err
	}
	// A FROM-less SELECT evaluates its items once, against one empty row.
	rows, schema, err := []types.Row{{}}, types.Schema{}, error(nil)
	if st.From != nil {
		if rows, schema, err = oracleRelation(s, st.From, vis); err != nil {
			return nil, types.Schema{}, err
		}
	}
	lref := st.From
	for _, jc := range st.Joins {
		right, rs, err := oracleRelation(s, &jc.Right, vis)
		if err != nil {
			return nil, types.Schema{}, err
		}
		li, ri, out, err := joinShape(schema, lref, rs, jc)
		if err != nil {
			return nil, types.Schema{}, err
		}
		rows, schema, lref = rowHashJoin(rows, li, right, ri), out, nil
	}
	if rows, err = filterRows(rows, schema, st.Where); err != nil {
		return nil, types.Schema{}, err
	}
	switch {
	case hasAggregates(st) || len(st.GroupBy) > 0:
		ap, err := buildAggPlan(st, schema)
		if err != nil {
			return nil, types.Schema{}, err
		}
		if rows, err = aggregate(ap, rows, schema); err != nil {
			return nil, types.Schema{}, err
		}
		schema = ap.out
	case len(st.Items) == 1 && st.Items[0].Star:
	default:
		out, evals, err := selectShape(st.Items, schema)
		if err != nil {
			return nil, types.Schema{}, err
		}
		if rows, err = projectRows(rows, evals); err != nil {
			return nil, types.Schema{}, err
		}
		schema = out
	}
	if len(st.OrderBy) > 0 {
		idx, err := orderIndexes(schema, st.OrderBy)
		if err != nil {
			return nil, types.Schema{}, err
		}
		orderRows(rows, idx, st.OrderBy)
	}
	if st.Limit >= 0 && int64(len(rows)) > st.Limit {
		rows = rows[:st.Limit]
	}
	return rows, schema, nil
}

// oracleRelation produces one FROM/JOIN relation's rows: a base table scans
// row at a time, a view evaluates its own SELECT on the oracle, and a system
// table (synthesized as rows in production too) comes from the engine.
func oracleRelation(s *Session, tr *vsql.TableRef, vis storage.Visibility) ([]types.Row, types.Schema, error) {
	if view, ok := s.cluster.cat.View(tr.Name); ok {
		sub, err := vsql.Parse(view.SelectSQL)
		if err != nil {
			return nil, types.Schema{}, err
		}
		return oracleRows(s, sub.(*vsql.Select), vis)
	}
	if isSystemRelation(tr.Name) {
		return s.systemTable(strings.ToLower(tr.Name), vis)
	}
	tbl, ok := s.cluster.cat.Table(tr.Name)
	if !ok {
		return nil, types.Schema{}, fmt.Errorf("oracle: relation %q does not exist", tr.Name)
	}
	rows, err := s.scanTableRowAtATime(tbl, vis)
	return rows, tbl.Def.Schema, err
}

// scanTableRowAtATime is the reference scan: every visible row of the table,
// one boxed types.Value per cell and one delete-vector check per row, in
// segment order (the local replica for unsegmented tables).
func (s *Session) scanTableRowAtATime(tbl *catalog.Table, vis storage.Visibility) ([]types.Row, error) {
	positions := []int{s.localPos(tbl)}
	if tbl.Def.Segmented {
		positions = positions[:0]
		for i := range tbl.Stores {
			positions = append(positions, i)
		}
	}
	var out []types.Row
	for _, pos := range positions {
		store, _, err := s.replicaFor(tbl, pos)
		if err != nil {
			return nil, err
		}
		store.Scan(vis, vhash.Range{Lo: 0, Hi: vhash.RingSize}, func(r types.Row) bool {
			out = append(out, r.Clone())
			return true
		})
	}
	return out, nil
}

// rowHashJoin is the boxed-row reference join: build the hash table on the
// right input, probe the left in order.
func rowHashJoin(left []types.Row, li int, right []types.Row, ri int) []types.Row {
	ht := make(map[vexec.JoinKey][]types.Row, len(right))
	for _, r := range right {
		if k, ok := vexec.JoinKeyOf(r[ri]); ok {
			ht[k] = append(ht[k], r)
		}
	}
	var rows []types.Row
	for _, l := range left {
		k, ok := vexec.JoinKeyOf(l[li])
		if !ok {
			continue
		}
		for _, r := range ht[k] {
			rows = append(rows, append(append(make(types.Row, 0, len(l)+len(r)), l...), r...))
		}
	}
	return rows
}

// filterRows applies a residual predicate to materialized rows.
func filterRows(rows []types.Row, schema types.Schema, where expr.Expr) ([]types.Row, error) {
	if where == nil {
		return rows, nil
	}
	out := make([]types.Row, 0, len(rows))
	for _, r := range rows {
		ok, err := expr.EvalPredicate(where, r, &schema)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
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
		outSchema.Cols = append(outSchema.Cols, types.Column{Name: name, T: vexec.TypeOf(e, schema)})
		sc := schema
		evals = append(evals, func(r types.Row) (types.Value, error) { return e.Eval(r, &sc) })
	}
	return outSchema, evals, nil
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

// oracleTarget is what the row-at-a-time write path built for one store out
// of one statement's rows: the container's hashes, columns and zone maps, and
// the rows in container order.
type oracleTarget struct {
	rows   []types.Row
	hashes []uint32
	cols   []storage.Column
	stats  []storage.ColStats
}

// oracleWriteRows is the write path as it was when rows travelled boxed all
// the way down: every row hashed through vhash.HashRow to pick its home,
// every target's share of rows hashed again and columnized on its own, and
// the WAL payload columnized once more by storage.EncodeRows. It returns what
// each store of tbl must hold after one direct load of rows, keyed by store,
// and the RecInsert payload.
func oracleWriteRows(t testing.TB, tbl *catalog.Table, rows []types.Row) (map[*storage.Store]oracleTarget, []byte) {
	t.Helper()
	out := make(map[*storage.Store]oracleTarget)
	visit := func(st *storage.Store, share []types.Row) {
		cols, err := storage.ColumnsFromRows(share, tbl.Def.Schema)
		if err != nil {
			t.Fatal(err)
		}
		hashes := make([]uint32, len(share))
		for i, r := range share {
			hashes[i] = vhash.HashRow(r, st.SegIdx())
		}
		out[st] = oracleTarget{rows: share, hashes: hashes, cols: cols, stats: storage.ComputeStats(cols)}
	}
	if !tbl.Def.Segmented {
		for _, st := range tbl.Stores {
			visit(st, rows)
		}
	} else {
		buckets := make([][]types.Row, tbl.NumNodes())
		for _, r := range rows {
			home := tbl.HomeNode(tbl.RowHash(r))
			buckets[home] = append(buckets[home], r)
		}
		for home, share := range buckets {
			if len(share) == 0 {
				continue
			}
			visit(tbl.Stores[home], share)
			for r := range tbl.Buddies {
				visit(tbl.Buddies[r][(home+r+1)%tbl.NumNodes()], share)
			}
		}
	}
	payload, err := storage.EncodeRows(tbl.Def.Schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	return out, payload
}
