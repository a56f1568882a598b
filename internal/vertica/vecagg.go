package vertica

import (
	"context"
	"fmt"

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

// runGroupBy runs a group-by node: one hash table consumes every batch, and
// the groups leave it as one batch of key and aggregate vectors of the node's
// declared types, built a column at a time in first-seen group order.
// Cancelling ctx stops it between batches.
func runGroupBy(ctx context.Context, n *planNode, batches []*storage.Batch) ([]*storage.Batch, error) {
	ha := vexec.NewHashAgg(n.agg.spec, n.agg.in)
	for _, b := range batches {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := ha.Consume(b); err != nil {
			return nil, err
		}
	}
	n.keyPath = ha.FastPath()
	n.work.KernelRows, n.work.ResidualRows = ha.Rows()-ha.FallbackRows(), ha.FallbackRows()
	groups := ha.NumGroups()
	if groups == 0 {
		return nil, nil
	}
	cols := make([]storage.Column, len(n.agg.items))
	for i, pl := range n.agg.items {
		b := storage.NewBuilder(n.schema.Cols[i].T)
		b.Grow(groups)
		for g := 0; g < groups; g++ {
			var v types.Value
			if pl.groupCol >= 0 {
				v = ha.GroupKey(g)[pl.groupCol]
			} else {
				v = ha.AggResult(g, pl.aggIdx)
			}
			if err := b.Append(v); err != nil {
				return nil, fmt.Errorf("vertica: %s: %w", n.schema.Cols[i].Name, err)
			}
		}
		cols[i] = b.Build()
	}
	return []*storage.Batch{{Schema: n.schema, Cols: cols, Sel: storage.IdentitySel(groups)}}, nil
}
