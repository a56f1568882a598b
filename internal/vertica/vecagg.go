package vertica

import (
	"vsfabric/internal/expr"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vexec"
	"vsfabric/internal/vsql"
)

// This file runs GROUP BY / aggregate queries over a single base table on
// the vectorized pipeline: the table's filtered scan batches (scanBatches)
// are consumed by one typed hash-aggregation table (vexec.HashAgg)
// sequentially in segment order — the same row order a row-at-a-time scan
// sees, so group discovery order and float accumulation order match the row
// aggregate exactly.

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

// vecAgg is an aggregation compiled for the vectorized kernels: the kernel
// spec and, per select item, its index into spec.Aggs (-1 = grouping column).
type vecAgg struct {
	spec   vexec.AggSpec
	aggIdx []int
}

// vectorAggEligible compiles a single-base-table aggregation for the
// vectorized hash-aggregation kernels, or returns nil when it cannot run
// there: every aggregate argument must be a plain column of the table.
// Anything else falls back to the row-at-a-time aggregate().
func vectorAggEligible(ap *aggPlan, schema types.Schema) *vecAgg {
	v := &vecAgg{spec: vexec.AggSpec{GroupCols: ap.groupIdx}, aggIdx: make([]int, len(ap.items))}
	for i, pl := range ap.items {
		if pl.groupCol >= 0 {
			v.aggIdx[i] = -1
			continue
		}
		op, ok := aggOpOf(pl.agg)
		if !ok {
			return nil
		}
		col := -1 // COUNT(*)
		if pl.arg != nil {
			c, isCol := pl.arg.(*expr.Col)
			if !isCol {
				return nil
			}
			if col = schema.ColIndex(c.Name); col < 0 {
				return nil
			}
		}
		v.aggIdx[i] = len(v.spec.Aggs)
		v.spec.Aggs = append(v.spec.Aggs, vexec.AggExpr{Op: op, Col: col})
	}
	return v
}

// runVecAgg runs a vectorized group-by node: one hash table consumes every
// batch sequentially, in segment order, and only the groups box into rows.
func runVecAgg(n *planNode, batches []*storage.Batch, schema types.Schema) []types.Row {
	ha := vexec.NewHashAgg(n.vec.spec, schema)
	for _, b := range batches {
		ha.Consume(b)
	}
	out := make([]types.Row, 0, ha.NumGroups())
	for g := 0; g < ha.NumGroups(); g++ {
		key := ha.GroupKey(g)
		row := make(types.Row, len(n.agg.items))
		for i, pl := range n.agg.items {
			if pl.groupCol >= 0 {
				row[i] = key[pl.groupCol]
			} else {
				row[i] = ha.AggResult(g, n.vec.aggIdx[i])
			}
		}
		out = append(out, row)
	}
	n.rowsIn, n.keyPath = ha.Rows(), ha.FastPath()
	n.vecRows, n.resRows = ha.Rows()-ha.FallbackRows(), ha.FallbackRows()
	return out
}
