package vertica

import (
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vexec"
	"vsfabric/internal/vsql"
)

// This file runs every GROUP BY / aggregate: whatever the plan put under the
// group-by node — a filtered base scan, a join, a view — arrives as column
// batches and is consumed by one typed hash-aggregation table (vexec.HashAgg)
// sequentially, in batch order: the row order a row-at-a-time executor sees,
// so group discovery order and float accumulation order are the oracle's.

// aggOps maps a SQL aggregate function to its kernel op.
var aggOps = map[vsql.AggFn]vexec.AggOp{
	vsql.AggCount: vexec.AggCount,
	vsql.AggSum:   vexec.AggSum,
	vsql.AggAvg:   vexec.AggAvg,
	vsql.AggMin:   vexec.AggMin,
	vsql.AggMax:   vexec.AggMax,
}

// runGroupBy runs a group-by node: one hash table consumes every batch and
// only the groups box into rows.
func runGroupBy(n *planNode, batches []*storage.Batch) ([]types.Row, error) {
	ha := vexec.NewHashAgg(n.agg.spec, n.agg.in)
	for _, b := range batches {
		if err := ha.Consume(b); err != nil {
			return nil, err
		}
	}
	out := make([]types.Row, 0, ha.NumGroups())
	for g := 0; g < ha.NumGroups(); g++ {
		key := ha.GroupKey(g)
		row := make(types.Row, len(n.agg.items))
		for i, pl := range n.agg.items {
			if pl.groupCol >= 0 {
				row[i] = key[pl.groupCol]
			} else {
				row[i] = ha.AggResult(g, pl.aggIdx)
			}
		}
		out = append(out, row)
	}
	n.rowsIn, n.keyPath = ha.Rows(), ha.FastPath()
	n.vecRows, n.resRows = ha.Rows()-ha.FallbackRows(), ha.FallbackRows()
	return out, nil
}
