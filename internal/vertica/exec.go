package vertica

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"vsfabric/internal/catalog"
	"vsfabric/internal/expr"
	"vsfabric/internal/sim"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vexec"
	"vsfabric/internal/vhash"
	"vsfabric/internal/vsql"
)

func snapshotVis(c *Cluster) storage.Visibility {
	return storage.Visibility{Epoch: c.txm.LastEpoch()}
}

// selectSnapshot resolves a SELECT's read snapshot: AT EPOCH pins it;
// otherwise the open transaction's view or read-committed.
func (s *Session) selectSnapshot(st *vsql.Select) (storage.Visibility, error) {
	vis := s.vis()
	if st.AtEpoch != nil && !st.AtEpoch.Latest {
		if st.AtEpoch.N > s.cluster.txm.LastEpoch() {
			return vis, fmt.Errorf("vertica: epoch %d has not closed yet (last epoch %d)", st.AtEpoch.N, s.cluster.txm.LastEpoch())
		}
		vis.Epoch = st.AtEpoch.N
	}
	return vis, nil
}

// executeSelect plans and runs a SELECT.
func (s *Session) executeSelect(ctx context.Context, st *vsql.Select) (*Result, error) {
	res, _, err := s.runSelect(ctx, st, false)
	return res, err
}

// runSelect is plan + run: it returns the result set and the plan carrying
// the run's actuals (PROFILE renders it). Cancelling ctx stops the run.
func (s *Session) runSelect(ctx context.Context, st *vsql.Select, prof bool) (*Result, *selectPlan, error) {
	vis, err := s.selectSnapshot(st)
	if err != nil {
		return nil, nil, err
	}
	// Pin the snapshot for the statement's duration so storage reclamation
	// cannot purge rows this scan is entitled to see (the AHM stays at or
	// below vis.Epoch until the scan finishes).
	release := s.cluster.txm.PinEpoch(vis.Epoch)
	defer release()
	plan, err := s.planSelect(st, vis)
	if err != nil {
		return nil, nil, err
	}
	batches, err := s.run(ctx, plan, prof)
	if err != nil {
		return nil, nil, err
	}
	res := &Result{Schema: plan.schema, Batches: batches, Epoch: vis.Epoch}
	s.recordQuery(plan, res)
	s.recordPlan(plan, res.NumRows(), vis.Epoch)
	return res, plan, nil
}

func (s *Session) bindSelectFuncs(st *vsql.Select) error {
	for _, it := range st.Items {
		if it.Expr != nil {
			if err := s.cluster.bindFuncs(it.Expr); err != nil {
				return err
			}
		}
		if it.Arg != nil {
			if err := s.cluster.bindFuncs(it.Arg); err != nil {
				return err
			}
		}
	}
	if st.Where != nil {
		return s.cluster.bindFuncs(st.Where)
	}
	return nil
}

// hasAggregates reports whether any select item aggregates.
func hasAggregates(st *vsql.Select) bool {
	for _, it := range st.Items {
		if it.Agg != "" {
			return true
		}
	}
	return false
}

// scanOpts carries the scan-level pushdowns of one base-table scan.
type scanOpts struct {
	// cols picks the table columns the scan's batches carry, in output order
	// (repeats allowed); nil carries them all.
	cols []int
	// limit stops the scan once this many rows have been produced; -1 = no
	// limit. planSelect only sets it when scan rows map 1:1 to output rows.
	limit int64
	// countOnly keeps no batch: the scan returns only the visible-and-matching
	// row count from selection-vector popcounts.
	countOnly bool
	// gather marks a scan whose selected rows travel to the coordinating node
	// as the query's result: rows from a remote segment are charged to the
	// simulated internal network. Aggregation and join inputs are consumed
	// where they are scanned and are not.
	gather bool
}

// readNames lists the column names the nodes above the relations read — the
// select list, GROUP BY keys, aggregate arguments and a residual WHERE — or
// reports every, with no names, when a `*` or a HASH(*) reads whole rows.
// ORDER BY is left out on purpose: it sorts the projected output, whose
// columns the select list already names.
func readNames(st *vsql.Select, residual expr.Expr) (names []string, every bool) {
	names = append(names, st.GroupBy...)
	exprs := []expr.Expr{residual}
	for _, it := range st.Items {
		if it.Star {
			return nil, true
		}
		exprs = append(exprs, it.Expr, it.Arg)
	}
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if expr.ReadsRow(e) {
			return nil, true
		}
		names = e.Columns(names)
	}
	return names, false
}

// scanConcurrency bounds the parallel segment-scan worker pool.
var scanConcurrency = runtime.GOMAXPROCS(0)

// segJob is one segment's share of a table scan: the replica serving it and
// the physical rows a full scan of it visits (the planner's estimate and the
// simulator's scan charge). gathered is an actual: the bytes a traced
// gathering scan moved from a remote segment to the coordinating node.
type segJob struct {
	store     *storage.Store
	homeNode  int
	totalRows int
	gathered  float64
}

// segResult is the outcome of scanning one segment.
type segResult struct {
	batches    []*storage.Batch
	count      int64             // rows the batches select (kept or, with countOnly, not)
	fstats     vexec.FilterStats // kernel/residual work split (profile scans only)
	contSeen   int64             // ROS containers considered
	contPruned int64             // ROS containers skipped via zone maps or hash span
	err        error
}

// buildSegJobs lists the (store, home node) pairs a table scan visits: every
// segment whose hash range intersects hr, failing over to buddies for down
// nodes. An unsegmented table's one segment is read from the connected
// node's local replica when it is UP (zero shuffle).
func (s *Session) buildSegJobs(tbl *catalog.Table, hr vhash.Range) ([]segJob, error) {
	var jobs []segJob
	ranges := tbl.SegmentRanges()
	for _, seg := range tbl.Segs(s.localPos(tbl)) {
		// Skip segments the requested hash range cannot touch.
		if ranges[seg].Lo >= hr.Hi || ranges[seg].Hi <= hr.Lo {
			continue
		}
		store, homeNode, err := s.replicaFor(tbl, seg)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, segJob{store: store, homeNode: homeNode, totalRows: store.TotalRows()})
	}
	return jobs, nil
}

// pruneFunc returns the container-level filter for a compiled predicate.
// Every ROS container is counted; those prunes excludes are skipped without
// building a selection vector.
func (s *Session) pruneFunc(pred *vexec.Pred, res *segResult) func(*storage.ROSContainer) bool {
	return func(c *storage.ROSContainer) bool {
		res.contSeen++
		if prunes(pred, c) {
			res.contPruned++
			return true
		}
		return false
	}
}

// prunes reports whether pred provably matches no row of c: its zone maps
// exclude the predicate's column bounds (no stats, no verdict), or its hash
// span lies outside the predicate's ring. Pruning on stats that cover deleted
// rows too is a sound superset test: excluding [min, max] excludes every
// visible row. The run (pruneFunc) and EXPLAIN's estimate (sizeContainers)
// both ask it, so they count alike.
func prunes(pred *vexec.Pred, c *storage.ROSContainer) bool {
	if stats := c.Stats(); pred.HasZoneChecks() && len(stats) != 0 && pred.CanPrune(stats, c.RowCount) {
		return true
	}
	return pred.ExcludesSpan(c.HashSpan())
}

// runSegJobs runs fn(0..n-1) over the bounded segment-scan worker pool.
func runSegJobs(n int, fn func(int)) {
	if workers := min(scanConcurrency, n); workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					fn(i)
				}
			}()
		}
		wg.Wait()
	}
}

// scanBatches is the engine's one scan: it reads a planned base-table scan
// node under the read context into column batches without boxing a row. The
// node's hash range prunes segments; each segment's store is scanned over the
// whole ring, so a container without deletes reaches the filter whole, its Sel
// 0…n−1 cut from the shared identity (whole by its values, storage.IdentityRun).
// The predicate runs as container pruning (zone maps and hash span, prunes),
// then as column kernels (vexec), its HASH range last. Segments fan out over a
// bounded worker pool, and the surviving batches merge in segment order, so
// results are deterministic and match a sequential scan. The batches alias the
// containers' immutable column vectors and carry selection vectors nothing
// writes once built: they stay valid, and keep showing the snapshot they were
// scanned at, after the statement's epoch pin is gone. The returned count is
// the rows selected; with countOnly it is all that is returned. The node's
// actuals are filled in. A segment checks ctx before each batch: once it is
// cancelled, every segment stops and the scan fails with ctx's error.
func (s *Session) scanBatches(ctx context.Context, n *planNode, vis storage.Visibility, prof bool) ([]*storage.Batch, int64, error) {
	jobs, pred, opts := n.jobs, n.pred, n.opts
	if opts.limit == 0 {
		// Nothing can be returned, so no segment is opened.
		return nil, 0, nil
	}
	results := make([]segResult, len(jobs))
	runSegJobs(len(jobs), func(i int) {
		res := &results[i]
		remote := s.rec != nil && opts.gather && jobs[i].homeNode != s.node.ID
		var fs *vexec.FilterStats
		if prof {
			fs = &res.fstats
		}
		err := jobs[i].store.ScanContainers(vis, fullRing(), s.pruneFunc(pred, res), func(b *storage.Batch) bool {
			if err := ctx.Err(); err != nil {
				res.err = err
				return false
			}
			var err error
			if opts.limit >= 0 {
				err = filterUpTo(pred, b, fs, opts.limit-res.count)
			} else {
				err = pred.FilterBatchStats(b, fs)
			}
			if err != nil {
				res.err = err
				return false
			}
			res.count += int64(len(b.Sel))
			if len(b.Sel) > 0 && !opts.countOnly {
				if opts.cols != nil {
					b = b.Project(opts.cols)
				}
				if remote {
					jobs[i].gathered += float64(batchWireSize(b))
				}
				res.batches = append(res.batches, b)
			}
			// Stop this segment once it alone can satisfy the LIMIT; the merge
			// keeps segment order, so the first rows win deterministically.
			return !(opts.limit >= 0 && res.count >= opts.limit)
		})
		if err != nil && res.err == nil {
			res.err = err
		}
	})

	// Deterministic merge in segment order.
	var out []*storage.Batch
	var count int64
	for i := range results {
		res := &results[i]
		if res.err != nil {
			return nil, 0, res.err
		}
		count += res.count
		n.rowsIn += int64(jobs[i].totalRows)
		n.work.Add(res.fstats)
		n.contSeen += res.contSeen
		n.contPruned += res.contPruned
		out = append(out, res.batches...)
	}
	if opts.limit >= 0 && count > opts.limit {
		out, count = limitBatches(out, opts.limit), opts.limit
	}
	n.rowsOut = count
	return out, count, nil
}

// limitChunk is how many selected rows of a container a LIMIT-pushed scan
// filters first. Each later run is twice the one before, so a limit that
// needs the whole container costs O(log) filter calls more than one pass, and
// a limit its first rows meet leaves the rest unread.
const limitChunk = 1024

// filterUpTo is pred.FilterBatchStats narrowed to at most need rows: it
// filters b.Sel in runs, in order, and stops once need rows survive. A run is
// capped at its own length, so appending to what it leaves copies it rather
// than writing into a selection shared with other batches.
func filterUpTo(pred *vexec.Pred, b *storage.Batch, fs *vexec.FilterStats, need int64) error {
	all := b.Sel
	var kept []int32
	for lo, size := 0, limitChunk; lo < len(all) && int64(len(kept)) < need; lo, size = lo+size, 2*size {
		hi := min(lo+size, len(all))
		b.Sel = all[lo:hi:hi]
		if err := pred.FilterBatchStats(b, fs); err != nil {
			return err
		}
		if lo == 0 {
			kept = b.Sel
		} else {
			kept = append(kept, b.Sel...)
		}
	}
	b.Sel = kept[:min(need, int64(len(kept)))]
	return nil
}

// limitBatches cuts a batch list down to its first limit selected rows.
func limitBatches(batches []*storage.Batch, limit int64) []*storage.Batch {
	if limit == 0 {
		return nil
	}
	for i, b := range batches {
		if int64(len(b.Sel)) >= limit {
			b.Sel = b.Sel[:limit]
			return batches[:i+1]
		}
		limit -= int64(len(b.Sel))
	}
	return batches
}

// resolveNeedCols maps the needed column names onto schema indexes, in
// schema order, and builds the narrowed output schema. Unresolvable names
// (or a nil request) fall back to materializing every column.
func resolveNeedCols(schema types.Schema, needCols []string) ([]int, types.Schema) {
	if needCols == nil {
		return nil, schema
	}
	need := make([]bool, len(schema.Cols))
	for _, n := range needCols {
		i := schema.ColIndex(n)
		if i < 0 {
			return nil, schema
		}
		need[i] = true
	}
	idx := make([]int, 0, len(needCols))
	out := types.Schema{}
	for i, b := range need {
		if b {
			idx = append(idx, i)
			out.Cols = append(out.Cols, schema.Cols[i])
		}
	}
	return idx, out
}

// replicaFor returns the store serving segment pos of the table, plus the ID
// of the node actually serving: the first of its replicas, in failover order,
// on an UP node. Only UP nodes serve reads: a DOWN or RECOVERING node's
// stores may be missing writes it slept through.
func (s *Session) replicaFor(tbl *catalog.Table, pos int) (*storage.Store, int, error) {
	for _, rep := range tbl.Replicas(pos) {
		if s.cluster.nodeUp(rep.Node) {
			return rep.Store, rep.Node, nil
		}
	}
	return nil, 0, fmt.Errorf("vertica: segment %d of table %q unavailable (node down, k-safety exhausted)", pos, tbl.Def.Name)
}

// localPos returns the connected node's position in the table's ring, or 0
// when the node is not in it (a freshly added node, pre-rebalance, serves
// from position 0's replica set).
func (s *Session) localPos(tbl *catalog.Table) int {
	if p := tbl.PosOf(s.node.ID); p >= 0 {
		return p
	}
	return 0
}

// recordQuery adds a traced SELECT's QueryFlowEv, built from the run plan the
// way recordPlan builds its query_plans row: every base-table scan, a view's
// included, charges each segment's home node the rows a full scan of it
// visits and the bytes it gathered to this node. The result is weighed from
// its vectors; the numbers are those its boxed rows would give.
func (s *Session) recordQuery(p *selectPlan, res *Result) {
	if s.rec == nil {
		return
	}
	ev := sim.Event{Type: sim.QueryFlowEv, VNode: s.node.Name, CNode: s.peer, ResultRows: float64(res.NumRows()),
		ScanRows: make(map[string]float64), Shuffle: make(map[[2]string]float64)}
	for _, b := range res.Batches {
		ev.ResultBytes += float64(batchTextSize(b))
	}
	p.each(func(n *planNode) {
		for _, j := range n.jobs {
			home := sim.VName(j.homeNode)
			ev.ScanRows[home] += float64(j.totalRows)
			if j.gathered > 0 {
				ev.Shuffle[[2]string{home, s.node.Name}] += j.gathered
			}
		}
	})
	s.rec.Add(ev)
}

// textCellSize models the client protocol's text row encoding — the reason
// the paper's D1 moves ~2.3 KB/row on the JDBC wire (Table 2's 120 MBps x 4
// nodes x 475 s ≈ 228 GB for 100M rows) even though its CSV is 1.4 KB/row:
// the protocol renders FLOATs at full width regardless of stored precision.
func textCellSize(v types.Value) int {
	switch {
	case v.Null:
		return 4
	case v.T == types.Float64:
		return 4 + 19
	case v.T == types.Int64:
		n := 4 + 1
		if v.I < 0 {
			n++
		}
		for u := v.I / 10; u != 0; u /= 10 {
			n++
		}
		return n
	default:
		return 4 + len(v.String())
	}
}

// batchTextSize is the sum of textCellSize over the batch's selected cells.
func batchTextSize(b *storage.Batch) int {
	n := 0
	for _, col := range b.Cols {
		if c, ok := col.(*storage.Float64Column); ok && c.Nulls == nil {
			n += (4 + 19) * len(b.Sel)
			continue
		}
		for _, i := range b.Sel {
			n += textCellSize(col.Get(int(i)))
		}
	}
	return n
}

// batchWireSize is the sum of types.WireSize over the batch's selected rows.
func batchWireSize(b *storage.Batch) int {
	n := 0
	for _, col := range b.Cols {
		switch c := col.(type) {
		case *storage.StringColumn:
			for _, i := range b.Sel {
				n += 4
				if !c.IsNull(int(i)) {
					n += len(c.Vals[i])
				}
			}
		case *storage.BoolColumn:
			n += len(b.Sel)
		default:
			n += 8 * len(b.Sel)
		}
	}
	return n
}
