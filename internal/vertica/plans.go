package vertica

import "sync"

// planRecord is one completed SELECT's planning outcome, surfaced through
// v_monitor.query_plans: what the cost-based planner chose (join order, build
// sides, pushdowns) and how its estimates compared to reality.
type planRecord struct {
	ID    uint64
	Query string
	// Table is the anchor relation: the base table scanned, or the FROM
	// relation of a join pipeline.
	Table string
	// JoinOrder lists the relations in the order the planner attached them
	// ("orders JOIN customers JOIN regions"); empty for single-table queries.
	JoinOrder string
	// EstRows is the planner's input-cardinality estimate; ActualRows the
	// result-set size actually produced.
	EstRows    int64
	ActualRows int64
	// ContainersScanned / ContainersPruned count ROS containers decoded vs
	// skipped outright because their zone maps excluded the predicate range.
	ContainersScanned int64
	ContainersPruned  int64
	// Pushdown names the scan-level short-circuit taken ("count", "group-by",
	// or "" for a plain scan); Vectorized reports whether the batch pipeline
	// ran (false when no base table was scanned: system tables, FROM-less).
	Pushdown   string
	Vectorized bool
	Epoch      uint64
}

// planTracker keeps a bounded in-memory ring of query plans.
type planTracker struct {
	mu   sync.Mutex
	next uint64
	recs []planRecord
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
	t.recs = append(t.recs, r)
	if len(t.recs) > planHistory {
		t.recs = append(t.recs[:0:0], t.recs[len(t.recs)-planHistory:]...)
	}
	return r
}

func (t *planTracker) snapshot() []planRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]planRecord(nil), t.recs...)
}

// recordPlan files a completed SELECT's planning outcome. Queries that never
// planned a base-table scan (system tables, FROM-less selects) leave no
// record; the monitoring tables must not observe themselves.
func (s *Session) recordPlan(stats *scanStats, rowsOut int, epoch uint64) {
	if stats.table == "" {
		return
	}
	est := stats.estRows
	if est == 0 {
		// Plain scans estimate input cardinality as the physical rows visited.
		for _, n := range stats.scanRows {
			est += int64(n)
		}
	}
	rec := s.cluster.plans.record(planRecord{
		Query:             s.curSQL,
		Table:             stats.table,
		JoinOrder:         stats.joinOrder,
		EstRows:           est,
		ActualRows:        int64(rowsOut),
		ContainersScanned: stats.contScanned,
		ContainersPruned:  stats.contPruned,
		Pushdown:          stats.pushdown,
		Vectorized:        stats.vectorized,
		Epoch:             epoch,
	})
	s.cluster.dcAppendPlan(rec)
}
