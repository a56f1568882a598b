package vertica

import (
	"fmt"
	"time"

	"vsfabric/internal/expr"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vexec"
	"vsfabric/internal/vsql"
)

// This file pushes GROUP BY / aggregate queries over a single base table
// down into the vectorized pipeline: the table's filtered scan batches
// (scanBatches) are consumed by one typed hash-aggregation table
// (vexec.HashAgg) sequentially in segment order — the same row order a
// row-at-a-time scan sees, so group discovery order and float accumulation
// order match the row aggregate exactly.

// aggOpOf maps a SQL aggregate function to its kernel op.
func aggOpOf(fn vsql.AggFn) (vexec.AggOp, bool) {
	switch fn {
	case vsql.AggCount:
		return vexec.AggCount, true
	case vsql.AggSum:
		return vexec.AggSum, true
	case vsql.AggAvg:
		return vexec.AggAvg, true
	case vsql.AggMin:
		return vexec.AggMin, true
	case vsql.AggMax:
		return vexec.AggMax, true
	default:
		return 0, false
	}
}

// vectorAggEligible reports whether a SELECT's aggregation can run on the
// vectorized hash-aggregation kernels: a single base table (no joins, views,
// or system tables) with every aggregate argument a plain column. Anything
// else falls back to the row-at-a-time aggregate().
func vectorAggEligible(s *Session, st *vsql.Select) bool {
	if st.From == nil || len(st.Joins) > 0 {
		return false
	}
	if !hasAggregates(st) && len(st.GroupBy) == 0 {
		return false
	}
	if !baseTableOnly(s, st.From) {
		return false
	}
	tbl, ok := s.cluster.cat.Table(st.From.Name)
	if !ok {
		return false
	}
	plans, _, _, err := buildAggPlan(st, tbl.Def.Schema)
	if err != nil {
		return false
	}
	for _, pl := range plans {
		if pl.groupCol >= 0 {
			continue
		}
		if _, ok := aggOpOf(pl.agg); !ok {
			return false
		}
		if pl.arg == nil {
			continue // COUNT(*)
		}
		col, isCol := pl.arg.(*expr.Col)
		if !isCol || tbl.Def.Schema.ColIndex(col.Name) < 0 {
			return false
		}
	}
	return true
}

// tryVectorizedAgg answers an eligible GROUP BY / aggregate SELECT from the
// typed hash-aggregation kernels without materializing input rows. ok=false
// falls through to the general scan + aggregate() path (which reports any
// errors, so ineligibility is silent here).
func (s *Session) tryVectorizedAgg(st *vsql.Select, vis storage.Visibility, stats *scanStats) (*Result, bool, error) {
	if !vectorAggEligible(s, st) {
		return nil, false, nil
	}
	// COUNT(*)-only queries already took the popcount pushdown upstream.
	tbl, ok := s.cluster.cat.Table(st.From.Name)
	if !ok {
		return nil, false, nil
	}
	schema := tbl.Def.Schema
	plans, groupIdx, outSchema, err := buildAggPlan(st, schema)
	if err != nil {
		return nil, false, nil
	}
	spec := vexec.AggSpec{GroupCols: groupIdx}
	aggIdx := make([]int, len(plans)) // plan item → index into spec.Aggs
	for i, pl := range plans {
		if pl.groupCol >= 0 {
			aggIdx[i] = -1
			continue
		}
		op, _ := aggOpOf(pl.agg)
		col := -1
		if pl.arg != nil {
			col = schema.ColIndex(pl.arg.(*expr.Col).Name)
		}
		aggIdx[i] = len(spec.Aggs)
		spec.Aggs = append(spec.Aggs, vexec.AggExpr{Op: op, Col: col})
	}

	stats.pushdown = "group-by"
	batches, _, err := s.scanBatches(tbl, st.Where, vis, stats, scanOpts{limit: -1})
	if err != nil {
		return nil, false, err
	}

	// One hash table consumes every batch sequentially, in segment order.
	qp := stats.prof
	aggStart := profClock(qp)
	ha := vexec.NewHashAgg(spec, schema)
	for _, b := range batches {
		ha.Consume(b)
	}

	out := make([]types.Row, 0, ha.NumGroups())
	for g := 0; g < ha.NumGroups(); g++ {
		key := ha.GroupKey(g)
		row := make(types.Row, len(plans))
		for i, pl := range plans {
			if pl.groupCol >= 0 {
				row[i] = key[pl.groupCol]
			} else {
				row[i] = ha.AggResult(g, aggIdx[i])
			}
		}
		out = append(out, row)
	}
	if len(st.OrderBy) > 0 {
		if err := orderRows(out, outSchema, st.OrderBy); err != nil {
			return nil, false, err
		}
	}
	if st.Limit >= 0 && int64(len(out)) > st.Limit {
		out = out[:st.Limit]
	}
	if qp != nil {
		qp.add(opStat{
			name: "group-by", rowsIn: ha.Rows(), rowsOut: int64(ha.NumGroups()),
			vecRows: ha.Rows() - ha.FallbackRows(), resRows: ha.FallbackRows(),
			dur:    time.Since(aggStart),
			detail: fmt.Sprintf("vectorized hash aggregation (%s keys), %d groups", ha.FastPath(), ha.NumGroups()),
		})
	}
	return &Result{Schema: outSchema, Rows: out}, true, nil
}
