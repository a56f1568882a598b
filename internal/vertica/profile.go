package vertica

import (
	"fmt"
	"time"

	"vsfabric/internal/types"
	"vsfabric/internal/vsql"
)

// opStat is one operator line of a PROFILE result: how many rows flowed in
// and out, how the filtering work split between compiled kernels and the
// interpreted residual, and the operator's wall-clock cost.
type opStat struct {
	name    string
	rowsIn  int64
	rowsOut int64
	vecRows int64 // rows the typed kernels examined (vectorized work)
	resRows int64 // rows the interpreted residual examined
	dur     time.Duration
	detail  string
}

// queryProfile accumulates operator stats while a profiled SELECT runs.
// Operators append in execution order on the coordinating goroutine (parallel
// segment scans fold their per-segment counts at the merge, so no locking).
type queryProfile struct {
	ops []opStat
}

func (qp *queryProfile) add(op opStat) {
	if qp != nil {
		qp.ops = append(qp.ops, op)
	}
}

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

// executeProfile runs PROFILE <select>: the wrapped query executes normally
// (same snapshot rules, same pushdowns) with per-operator instrumentation
// switched on, and the profile — not the query's rows — comes back as the
// result set.
func (s *Session) executeProfile(p *vsql.Profile) (*Result, error) {
	qp := &queryProfile{}
	start := time.Now()
	res, err := s.executeSelectProf(p.Select, qp)
	if err != nil {
		return nil, err
	}
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
		qp.add(opStat{name: "event: " + string(ev.Type), detail: detail})
	}
	qp.add(opStat{
		name:    "total",
		rowsOut: int64(res.NumRows()),
		dur:     time.Since(start),
		detail:  fmt.Sprintf("epoch %d", res.Epoch),
	})
	rows := make([]types.Row, 0, len(qp.ops))
	for _, op := range qp.ops {
		rows = append(rows, types.Row{
			types.StringValue(op.name),
			types.IntValue(op.rowsIn),
			types.IntValue(op.rowsOut),
			types.IntValue(op.vecRows),
			types.IntValue(op.resRows),
			types.IntValue(op.dur.Microseconds()),
			types.StringValue(op.detail),
		})
	}
	return &Result{Schema: profileSchema, Rows: rows, Epoch: res.Epoch}, nil
}
