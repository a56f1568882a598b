package vertica

import (
	"sync"

	"vsfabric/internal/obs"
	"vsfabric/internal/types"
)

// planRecord is one completed SELECT's plan, summarized: what the planner
// chose (join order, pushdowns) and how its estimates compared to what the
// run observed. It is the row of v_monitor.query_plans and of the spooled
// dc_query_plans.
type planRecord struct {
	ID    uint64
	Query string
	// Table is the anchor relation: the base table scanned, or the FROM
	// relation of a join pipeline.
	Table string
	// JoinOrder lists the relations in the order the planner attached them
	// ("orders JOIN customers JOIN regions"); empty for single-table queries.
	JoinOrder string
	// EstRows is the planner's input-cardinality estimate (estUnknown when the
	// source is unsized: SQL NULL); ActualRows the result-set size produced.
	EstRows    int64
	ActualRows int64
	// ContainersScanned / ContainersPruned count ROS containers decoded vs
	// skipped outright because their zone maps excluded the predicate range.
	ContainersScanned int64
	ContainersPruned  int64
	// Pushdown names the scan-level short-circuit taken ("count", "group-by",
	// or "" for a plain scan).
	Pushdown string
	Epoch    uint64
}

var queryPlansSchema = types.NewSchema(
	types.Column{Name: "plan_id", T: types.Int64},
	types.Column{Name: "query", T: types.Varchar},
	types.Column{Name: "anchor_table", T: types.Varchar},
	types.Column{Name: "join_order", T: types.Varchar},
	types.Column{Name: "estimated_rows", T: types.Int64},
	types.Column{Name: "actual_rows", T: types.Int64},
	types.Column{Name: "containers_scanned", T: types.Int64},
	types.Column{Name: "containers_pruned", T: types.Int64},
	types.Column{Name: "pushdown", T: types.Varchar},
	types.Column{Name: "vectorized", T: types.Bool},
	types.Column{Name: "epoch", T: types.Int64},
)

func (p planRecord) row() types.Row {
	return types.Row{
		types.IntValue(int64(p.ID)),
		types.StringValue(p.Query),
		types.StringValue(p.Table),
		types.StringValue(p.JoinOrder),
		estValue(p.EstRows),
		types.IntValue(p.ActualRows),
		types.IntValue(p.ContainersScanned),
		types.IntValue(p.ContainersPruned),
		types.StringValue(p.Pushdown),
		// Only plans that scanned a base table are recorded, and every base
		// scan runs on the batch pipeline.
		types.BoolValue(true),
		types.IntValue(int64(p.Epoch)),
	}
}

// planTracker keeps a bounded in-memory history of query plans.
type planTracker struct {
	mu   sync.Mutex
	next uint64 // plans recorded so far
	ring *obs.Ring[planRecord]
}

// planHistory bounds the tracker: the oldest plans age out first.
const planHistory = 512

// record files r (assigning its ID) and returns the stored record, so the
// caller can spool it to the durable data collector.
func (t *planTracker) record(r planRecord) planRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	r.ID = t.next
	t.ring.Add(r)
	return r
}

// snapshot returns the retained plans, oldest first.
func (t *planTracker) snapshot() []planRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Snapshot()
}

// recordPlan summarizes a run plan into v_monitor.query_plans. Queries that
// never scanned a base table (system tables, FROM-less selects) leave no
// record; the monitoring tables must not observe themselves.
func (s *Session) recordPlan(p *selectPlan, rowsOut int, epoch uint64) {
	rec := planRecord{
		Query: s.curSQL, JoinOrder: p.joinOrder, EstRows: p.est,
		ActualRows: int64(rowsOut), Pushdown: p.pushdown, Epoch: epoch,
	}
	p.each(func(n *planNode) {
		if n.tbl == nil {
			return
		}
		if rec.Table == "" {
			rec.Table = n.tbl.Def.Name
		}
		rec.ContainersScanned += n.contSeen - n.contPruned
		rec.ContainersPruned += n.contPruned
	})
	if rec.Table != "" {
		s.cluster.dcAppendPlan(s.cluster.plans.record(rec))
	}
}
