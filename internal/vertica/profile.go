package vertica

import (
	"context"
	"fmt"
	"time"

	"vsfabric/internal/types"
	"vsfabric/internal/vsql"
)

// profileSchema is the PROFILE statement's result-set contract (documented
// in DESIGN.md): one row per operator, execution order, "total" last.
var profileSchema = types.Schema{Cols: []types.Column{
	{Name: "operator", T: types.Varchar},
	{Name: "rows_in", T: types.Int64},
	{Name: "rows_out", T: types.Int64},
	{Name: "vectorized_rows", T: types.Int64},
	{Name: "residual_rows", T: types.Int64},
	{Name: "duration_us", T: types.Int64},
	{Name: "detail", T: types.Varchar},
}}

// executeProfile is plan + run + render: PROFILE <select> executes the
// wrapped query normally (same snapshot rules, same plan) with the clock and
// the kernel/residual split switched on, and the plan's actuals — not the
// query's rows — come back as the result set.
func (s *Session) executeProfile(ctx context.Context, p *vsql.Profile) (*Result, error) {
	start := time.Now()
	res, plan, err := s.runSelect(ctx, p.Select, true)
	if err != nil {
		return nil, err
	}
	var rows []types.Row
	add := func(name string, rowsIn, rowsOut, vecRows, resRows int64, dur time.Duration, detail string) {
		rows = append(rows, types.Row{
			types.StringValue(name), types.IntValue(rowsIn), types.IntValue(rowsOut),
			types.IntValue(vecRows), types.IntValue(resRows),
			types.IntValue(dur.Microseconds()), types.StringValue(detail),
		})
	}
	plan.each(func(n *planNode) {
		add(n.name(), n.rowsIn, n.rowsOut, n.work.KernelRows, n.work.ResidualRows, n.dur, n.describe(true))
	})
	// Inline query events: everything the statement raised while executing,
	// rendered as pseudo-operators ahead of the "total" row. Value and
	// threshold land in the detail column — their unit varies by event type.
	for _, ev := range s.stmtEvents {
		detail := ev.Detail
		if ev.Threshold != 0 {
			detail = fmt.Sprintf("%s (value %d over threshold %d)", detail, ev.Value, ev.Threshold)
		} else if ev.Value != 0 {
			detail = fmt.Sprintf("%s (value %d)", detail, ev.Value)
		}
		add("event: "+ev.Name, 0, 0, 0, 0, 0, detail)
	}
	add("total", 0, int64(res.NumRows()), 0, 0, time.Since(start), fmt.Sprintf("epoch %d", res.Epoch))
	batches, err := columnize(rows, profileSchema)
	return &Result{Schema: profileSchema, Batches: batches, Epoch: res.Epoch}, err
}
