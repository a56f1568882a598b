package vertica

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vsfabric/internal/catalog"
	"vsfabric/internal/expr"
	"vsfabric/internal/obs"
	"vsfabric/internal/sim"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vexec"
	"vsfabric/internal/vhash"
	"vsfabric/internal/vsql"
)

// visibility wraps the storage read context for the executor.
type visibility struct{ v storage.Visibility }

func snapshotVis(c *Cluster) storage.Visibility {
	return storage.Visibility{Epoch: c.txm.LastEpoch()}
}

// scanStats accumulates the per-query resource accounting that becomes one
// QueryFlowEv for the performance layer, plus the optional per-operator
// profile a PROFILE statement collects.
type scanStats struct {
	scanRows map[string]float64
	shuffle  map[[2]string]float64
	prof     *queryProfile // nil unless the query runs under PROFILE

	// Planner/pruning accounting for v_monitor.query_plans (see recordPlan).
	table       string // anchor relation; "" when no base table was scanned
	joinOrder   string // chosen join order; "" for single-table queries
	estRows     int64  // planner cardinality estimate (0 = derive from scanRows)
	pushdown    string // "count", "group-by", or "" for a plain scan
	vectorized  bool   // a base table was scanned on the batch pipeline
	contScanned int64  // ROS containers decoded
	contPruned  int64  // ROS containers skipped via zone maps
}

func newScanStats() *scanStats {
	return &scanStats{scanRows: make(map[string]float64), shuffle: make(map[[2]string]float64)}
}

// executeSelect plans and runs a SELECT.
func (s *Session) executeSelect(st *vsql.Select) (*Result, error) {
	return s.executeSelectProf(st, nil)
}

// executeSelectProf is executeSelect with optional operator profiling.
func (s *Session) executeSelectProf(st *vsql.Select, qp *queryProfile) (*Result, error) {
	// Resolve the read snapshot: AT EPOCH pins it; otherwise read-committed.
	vis := s.vis().v
	if st.AtEpoch != nil && !st.AtEpoch.Latest {
		if st.AtEpoch.N > s.cluster.txm.LastEpoch() {
			return nil, fmt.Errorf("vertica: epoch %d has not closed yet (last epoch %d)", st.AtEpoch.N, s.cluster.txm.LastEpoch())
		}
		vis.Epoch = st.AtEpoch.N
	}
	// Pin the snapshot for the statement's duration so a concurrent moveout
	// cannot purge rows this scan is entitled to see (the AHM stays at or
	// below vis.Epoch until the scan finishes).
	release := s.cluster.txm.PinEpoch(vis.Epoch)
	defer release()
	if err := s.bindSelectFuncs(st); err != nil {
		return nil, err
	}

	stats := newScanStats()
	stats.prof = qp
	// Three shapes are answered from the scan's column batches without
	// sourcing rows: COUNT(*), vectorizable aggregation, and the plain scan.
	res, ok, err := s.tryCountPushdown(st, vis, stats)
	if !ok && err == nil {
		res, ok, err = s.tryVectorizedAgg(st, vis, stats)
	}
	if !ok && err == nil {
		res, ok, err = s.tryColumnarScan(st, vis, stats)
	}
	if err != nil {
		return nil, err
	}
	if ok {
		s.recordQuery(res, stats)
		s.recordPlan(stats, res.NumRows(), vis.Epoch)
		res.Epoch = vis.Epoch
		return res, nil
	}
	if hasAggregates(st) || len(st.GroupBy) > 0 {
		// The vectorized hash-aggregation pushdown declined: this aggregate
		// runs on the row-at-a-time reference path. Say why.
		detail := "aggregation shape not eligible for vectorized kernels"
		switch {
		case len(st.Joins) > 0:
			detail = "aggregate over a join runs row-at-a-time"
		case st.From != nil && !baseTableOnly(s, st.From):
			detail = "aggregate over a non-base relation runs row-at-a-time"
		}
		s.raiseEvent(obs.EvGroupByFallback, detail, 0, 0)
	}
	rows, schema, err := s.sourceRows(st, vis, stats)
	if err != nil {
		return nil, err
	}
	projStart := profClock(qp)
	out, outSchema, err := project(st, rows, schema, qp)
	if err != nil {
		return nil, err
	}
	if qp != nil {
		qp.add(opStat{
			name: "project", rowsIn: int64(len(rows)), rowsOut: int64(len(out)),
			dur: time.Since(projStart), detail: projectDetail(st),
		})
		if st.Limit >= 0 {
			qp.add(opStat{
				name: "limit", rowsIn: int64(len(out)), rowsOut: int64(len(out)),
				detail: fmt.Sprintf("LIMIT %d", st.Limit),
			})
		}
	}
	res = &Result{Schema: outSchema, Rows: out, Epoch: vis.Epoch}
	s.recordQuery(res, stats)
	s.recordPlan(stats, len(out), vis.Epoch)
	return res, nil
}

// profClock reads the clock only when profiling, keeping the common path
// free of time syscalls.
func profClock(qp *queryProfile) time.Time {
	if qp == nil {
		return time.Time{}
	}
	return time.Now()
}

// projectDetail summarizes what the projection operator did.
func projectDetail(st *vsql.Select) string {
	var parts []string
	if hasAggregates(st) {
		parts = append(parts, "aggregate")
	}
	if len(st.GroupBy) > 0 {
		parts = append(parts, fmt.Sprintf("group by %d cols", len(st.GroupBy)))
	}
	if len(st.OrderBy) > 0 {
		parts = append(parts, fmt.Sprintf("order by %d keys", len(st.OrderBy)))
	}
	if len(parts) == 0 {
		return fmt.Sprintf("%d items", len(st.Items))
	}
	return strings.Join(parts, ", ")
}

// tryCountPushdown answers SELECT COUNT(*) FROM basetable [WHERE ...]
// entirely from the vectorized scan's selection-vector popcounts, without
// materializing a single row — the engine half of the connector's COUNT
// pushdown (§3.1.1). Queries with joins, grouping, views, or system tables
// fall through to the general path.
func (s *Session) tryCountPushdown(st *vsql.Select, vis storage.Visibility, stats *scanStats) (*Result, bool, error) {
	if !countPushdownEligible(s, st) {
		return nil, false, nil
	}
	it := st.Items[0]
	tbl, ok := s.cluster.cat.Table(st.From.Name)
	if !ok {
		return nil, false, nil // let the general path report the error
	}
	stats.pushdown = "count"
	_, count, err := s.scanBatches(tbl, st.Where, vis, stats, scanOpts{limit: -1, countOnly: true})
	if err != nil {
		return nil, false, err
	}
	colName := it.Alias
	if colName == "" {
		colName = "count"
	}
	rows := []types.Row{{types.IntValue(count)}}
	if st.Limit >= 0 && int64(len(rows)) > st.Limit {
		rows = rows[:st.Limit]
	}
	return &Result{
		Schema: types.Schema{Cols: []types.Column{{Name: colName, T: types.Int64}}},
		Rows:   rows,
	}, true, nil
}

// countPushdownEligible reports whether a SELECT is exactly COUNT(*) over a
// base table — the shape tryCountPushdown (and EXPLAIN) answers from
// selection-vector popcounts.
func countPushdownEligible(s *Session, st *vsql.Select) bool {
	if st.From == nil || len(st.Joins) > 0 || len(st.GroupBy) > 0 || len(st.Items) != 1 {
		return false
	}
	it := st.Items[0]
	if it.Agg != vsql.AggCount || it.Arg != nil {
		return false
	}
	return baseTableOnly(s, st.From)
}

// tryColumnarScan answers a scan-shaped SELECT — one base table, every item
// `*` or a bare column, no aggregate, GROUP BY or ORDER BY: the shape of every
// V2S partition query — as the scan's own column batches. The projection is a
// pick of column vectors and the LIMIT a cut of selection vectors, so no row
// is boxed here; whoever asks the Result for rows boxes them, once.
func (s *Session) tryColumnarScan(st *vsql.Select, vis storage.Visibility, stats *scanStats) (*Result, bool, error) {
	if st.From == nil || len(st.Joins) > 0 || len(st.GroupBy) > 0 || len(st.OrderBy) > 0 || !baseTableOnly(s, st.From) {
		return nil, false, nil
	}
	tbl, ok := s.cluster.cat.Table(st.From.Name)
	if !ok {
		return nil, false, nil // let the general path report the error
	}
	var cols []int
	var schema types.Schema
	for _, it := range st.Items {
		if it.Star {
			for i, c := range tbl.Def.Schema.Cols {
				cols = append(cols, i)
				schema.Cols = append(schema.Cols, c)
			}
			continue
		}
		col, isCol := it.Expr.(*expr.Col)
		if !isCol || it.Agg != "" {
			return nil, false, nil
		}
		i := tbl.Def.Schema.ColIndex(col.Name)
		if i < 0 {
			return nil, false, nil // let the general path report the error
		}
		name := it.Alias
		if name == "" {
			name = col.Name
		}
		cols = append(cols, i)
		schema.Cols = append(schema.Cols, types.Column{Name: name, T: tbl.Def.Schema.Cols[i].T})
	}
	batches, n, err := s.scanBatches(tbl, st.Where, vis, stats, scanOpts{cols: cols, limit: st.Limit, gather: true})
	if err != nil {
		return nil, false, err
	}
	if qp := stats.prof; qp != nil {
		qp.add(opStat{name: "project", rowsIn: n, rowsOut: n, detail: projectDetail(st)})
		if st.Limit >= 0 {
			qp.add(opStat{name: "limit", rowsIn: n, rowsOut: n, detail: fmt.Sprintf("LIMIT %d", st.Limit)})
		}
	}
	return &Result{Schema: schema, Batches: batches}, true, nil
}

// baseTableOnly reports whether tr names a catalog base table (not a system
// table or a view).
func baseTableOnly(s *Session, tr *vsql.TableRef) bool {
	name := strings.ToLower(tr.Name)
	if strings.HasPrefix(name, "v_catalog.") || strings.HasPrefix(name, "v_monitor.") {
		return false
	}
	if _, isView := s.cluster.cat.View(tr.Name); isView {
		return false
	}
	return true
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

// sourceRows produces the filtered input row set of a SELECT (before
// projection/aggregation): base table scan with hash-range pushdown, view
// expansion, system tables, and the optional equi-join pipeline.
func (s *Session) sourceRows(st *vsql.Select, vis storage.Visibility, stats *scanStats) ([]types.Row, types.Schema, error) {
	if st.From == nil {
		// FROM-less SELECT evaluates items once against an empty row.
		return []types.Row{{}}, types.Schema{}, nil
	}
	if len(st.Joins) > 0 {
		return s.joinedRows(st, vis, stats)
	}
	// Late materialization: only the columns the SELECT list, aggregate
	// arguments, and GROUP BY actually touch are materialized from the
	// column store. The WHERE clause needs no materialization at all —
	// it is evaluated on the column vectors.
	opts := scanOpts{needCols: neededColumns(st), limit: -1, gather: true}
	// LIMIT pushes into the scan only when each scanned row maps 1:1 to
	// an output row: no aggregation, no grouping, no reordering.
	if !hasAggregates(st) && len(st.GroupBy) == 0 && len(st.OrderBy) == 0 && st.Limit >= 0 {
		opts.limit = st.Limit
	}
	// relationRows applies the WHERE clause during the scan.
	return s.relationRows(st.From, st.Where, vis, stats, opts)
}

// joinedRows runs the planner-ordered join pipeline: each step hash-joins the
// accumulated left side with the next relation on the typed batch kernel,
// then the residual WHERE filters the result. The WHERE clause may reference
// both sides, so join inputs scan unfiltered.
func (s *Session) joinedRows(st *vsql.Select, vis storage.Visibility, stats *scanStats) ([]types.Row, types.Schema, error) {
	plan := s.planJoins(st)
	stats.joinOrder = plan.orderString()
	stats.estRows = plan.estOut

	left, schema, err := s.relationBatches(st.From, vis, stats)
	if err != nil {
		return nil, types.Schema{}, err
	}
	if stats.table == "" {
		stats.table = st.From.Name
	}
	// lref qualifies the left side's column names at the first join only;
	// later steps see an already-qualified accumulated schema.
	lref := st.From
	var rows []types.Row
	for i, step := range plan.steps {
		if i > 0 {
			if left, err = rowsBatch(rows, schema); err != nil {
				return nil, types.Schema{}, err
			}
		}
		right, rightSchema, err := s.relationBatches(&step.clause.Right, vis, stats)
		if err != nil {
			return nil, types.Schema{}, err
		}
		joinStart := profClock(stats.prof)
		nLeft, nRight := int64(storage.SelectedRows(left)), int64(storage.SelectedRows(right))
		rows, schema, err = joinStep(left, schema, lref, right, rightSchema, step.clause, step.buildLeft)
		if err != nil {
			return nil, types.Schema{}, err
		}
		lref = nil
		buildRows, build := nRight, "right"
		if step.buildLeft {
			buildRows, build = nLeft, "left"
		}
		s.raiseJoinBuildEvent(buildRows, build, step.clause.LeftCol, step.clause.RightCol)
		if stats.prof != nil {
			stats.prof.add(opStat{
				name: "join", rowsIn: nLeft + nRight, rowsOut: int64(len(rows)),
				vecRows: nLeft + nRight, dur: time.Since(joinStart),
				detail: fmt.Sprintf("vectorized hash join %s = %s, build %s side", step.clause.LeftCol, step.clause.RightCol, build),
			})
		}
	}
	// Residual WHERE over the joined rows.
	filterStart := profClock(stats.prof)
	out, _, err := filterRows(rows, schema, st.Where, -1)
	if err != nil {
		return nil, types.Schema{}, err
	}
	if stats.prof != nil && st.Where != nil {
		stats.prof.add(opStat{
			name: "filter", rowsIn: int64(len(rows)), rowsOut: int64(len(out)),
			resRows: int64(len(rows)), dur: time.Since(filterStart), detail: "post-join residual",
		})
	}
	return out, schema, nil
}

// relationBatches produces one join input as column batches. A base table
// supplies its scan batches directly, so none of its rows box before the
// join decides they matched. Any other relation (a view, a system table)
// exists in row form and is columnized once; such row sets are
// type-permissive (a view's arithmetic column can mix INTEGER and FLOAT
// values), so they are coerced to their declared schema first.
func (s *Session) relationBatches(tr *vsql.TableRef, vis storage.Visibility, stats *scanStats) ([]*storage.Batch, types.Schema, error) {
	if baseTableOnly(s, tr) {
		if tbl, ok := s.cluster.cat.Table(tr.Name); ok {
			batches, _, err := s.scanBatches(tbl, nil, vis, stats, scanOpts{limit: -1})
			return batches, tbl.Def.Schema, err
		}
	}
	rows, schema, err := s.relationRows(tr, nil, vis, stats, scanOpts{limit: -1})
	if err != nil {
		return nil, types.Schema{}, err
	}
	batches, err := rowsBatch(storage.CoerceRows(schema, rows), schema)
	return batches, schema, err
}

// rowsBatch columnizes a row set as one batch. Rows that do not fit the
// schema are an error, not a reason to join some other way.
func rowsBatch(rows []types.Row, schema types.Schema) ([]*storage.Batch, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	cols, err := storage.ColumnsFromRows(rows, schema)
	if err != nil {
		return nil, fmt.Errorf("vertica: join input does not fit its schema: %w", err)
	}
	return []*storage.Batch{{Schema: schema, Cols: cols, Sel: storage.IdentitySel(len(rows))}}, nil
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

// scanOpts carries the scan-level pushdowns of one relation scan.
type scanOpts struct {
	// needCols names the columns the query reads after the scan (late
	// materialization); nil means every column. relationRows resolves it
	// into cols for a base table and ignores it for views and system tables,
	// whose rows exist in row form already.
	needCols []string
	// cols picks the table columns the scan's batches carry, in output order
	// (repeats allowed); nil carries them all.
	cols []int
	// limit stops the scan once this many rows have been produced; -1 = no
	// limit. Callers only set it when scan rows map 1:1 to output rows.
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

// relationRows scans one relation. When where is non-nil the predicate is
// applied during the scan (and the hash-range conjuncts are pushed into the
// segment scan); opts carries the LIMIT and column-pruning pushdowns.
func (s *Session) relationRows(tr *vsql.TableRef, where expr.Expr, vis storage.Visibility, stats *scanStats, opts scanOpts) ([]types.Row, types.Schema, error) {
	name := strings.ToLower(tr.Name)
	if strings.HasPrefix(name, "v_catalog.") || strings.HasPrefix(name, "v_monitor.") {
		rows, schema, err := s.systemTable(name, vis)
		if err != nil {
			return nil, types.Schema{}, err
		}
		return filterRows(rows, schema, where, opts.limit)
	}
	if view, ok := s.cluster.cat.View(tr.Name); ok {
		sub, err := vsql.Parse(view.SelectSQL)
		if err != nil {
			return nil, types.Schema{}, fmt.Errorf("vertica: view %q definition: %w", view.Name, err)
		}
		subSel, ok := sub.(*vsql.Select)
		if !ok {
			return nil, types.Schema{}, fmt.Errorf("vertica: view %q is not a SELECT", view.Name)
		}
		if err := s.bindSelectFuncs(subSel); err != nil {
			return nil, types.Schema{}, err
		}
		rows, schema, err := s.sourceRows(subSel, vis, stats)
		if err != nil {
			return nil, types.Schema{}, err
		}
		rows, schema, err = project2(subSel, rows, schema)
		if err != nil {
			return nil, types.Schema{}, err
		}
		return filterRows(rows, schema, where, opts.limit)
	}
	tbl, ok := s.cluster.cat.Table(tr.Name)
	if !ok {
		return nil, types.Schema{}, fmt.Errorf("vertica: relation %q does not exist", tr.Name)
	}
	var schema types.Schema
	opts.cols, schema = resolveNeedCols(tbl.Def.Schema, opts.needCols)
	batches, _, err := s.scanBatches(tbl, where, vis, stats, opts)
	return storage.Materialize(batches), schema, err
}

// filterRows applies a residual predicate to materialized rows, stopping at
// limit surviving rows (-1 = no limit).
func filterRows(rows []types.Row, schema types.Schema, where expr.Expr, limit int64) ([]types.Row, types.Schema, error) {
	if where == nil {
		if limit >= 0 && int64(len(rows)) > limit {
			rows = rows[:limit]
		}
		return rows, schema, nil
	}
	out := make([]types.Row, 0, len(rows))
	for _, r := range rows {
		if limit >= 0 && int64(len(out)) >= limit {
			break
		}
		ok, err := expr.EvalPredicate(where, r, &schema)
		if err != nil {
			return nil, types.Schema{}, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, schema, nil
}

// neededColumns collects the table columns a single-table SELECT actually
// reads after the scan: select-list expressions, aggregate arguments, and
// GROUP BY keys. ORDER BY is excluded on purpose — it sorts the projected
// output, so its keys must already appear in the select list. A star item
// (or any name the scan schema cannot resolve, e.g. a view about to be
// expanded) returns nil: materialize everything.
func neededColumns(st *vsql.Select) []string {
	var names []string
	for _, it := range st.Items {
		if it.Star {
			return nil
		}
		if it.Expr != nil {
			names = it.Expr.Columns(names)
		}
		if it.Arg != nil {
			names = it.Arg.Columns(names)
		}
	}
	names = append(names, st.GroupBy...)
	seen := make(map[string]bool, len(names))
	out := names[:0]
	for _, n := range names {
		key := strings.ToLower(n)
		if !seen[key] {
			seen[key] = true
			out = append(out, n)
		}
	}
	return out
}

// scanConcurrency bounds the parallel segment-scan worker pool.
var scanConcurrency = runtime.GOMAXPROCS(0)

// segJob is one segment's share of a table scan.
type segJob struct {
	store    *storage.Store
	homeNode int
}

// segResult is the outcome of scanning one segment.
type segResult struct {
	batches     []*storage.Batch
	count       int64 // rows the batches select (kept or, with countOnly, not)
	scanRows    float64
	shuffleB    float64           // bytes gathered to the coordinator (0 when local)
	fstats      vexec.FilterStats // kernel/residual work split (profile scans only)
	contSeen    int64             // ROS containers considered
	contPruned  int64             // ROS containers skipped via zone maps
	contNoStats int64             // ROS containers with prunable predicates but no stats
	err         error
}

// buildSegJobs lists the (store, home node) pairs a table scan visits:
// the local replica for unsegmented tables, otherwise every segment whose
// hash range intersects hr, failing over to buddies for down nodes.
func (s *Session) buildSegJobs(tbl *catalog.Table, hr vhash.Range) ([]segJob, error) {
	var jobs []segJob
	if !tbl.Def.Segmented {
		// Unsegmented tables are replicated everywhere: serve entirely from
		// the connected node's local replica (zero shuffle).
		store, homeNode, err := s.replicaFor(tbl, s.localPos(tbl))
		if err != nil {
			return nil, err
		}
		return append(jobs, segJob{store, homeNode}), nil
	}
	segs := tbl.SegmentRanges()
	for i := range tbl.Stores {
		// Skip segments the requested hash range cannot touch.
		if segs[i].Lo >= hr.Hi || segs[i].Hi <= hr.Lo {
			continue
		}
		store, homeNode, err := s.replicaFor(tbl, i)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, segJob{store, homeNode})
	}
	return jobs, nil
}

// pruneFunc returns the container-level zone-map filter for a compiled
// predicate. Every ROS container carrying stats is counted; those whose zone
// maps prove the predicate matches no row are skipped without building a
// selection vector. Pruning on stats that cover deleted rows too is a sound
// superset test: excluding [min, max] excludes every visible row.
func (s *Session) pruneFunc(pred *vexec.Pred, res *segResult) func([]storage.ColStats, int) bool {
	zoneable := pred.HasZoneChecks()
	return func(stats []storage.ColStats, rowCount int) bool {
		res.contSeen++
		if len(stats) == 0 {
			// Container carries no zone maps: a prunable predicate loses its
			// chance here. Counted so the engine can raise a query event.
			if zoneable {
				res.contNoStats++
			}
			return false
		}
		if zoneable && pred.CanPrune(stats, rowCount) {
			res.contPruned++
			return true
		}
		return false
	}
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

// scanBatches is the engine's one scan: it reads a base table under the read
// context into column batches without boxing a row. Hash-range conjuncts
// prune segments, the residual predicate is compiled to typed column kernels
// (vexec) and zone-map container pruning, segments fan out over a bounded
// worker pool, and the surviving batches merge in segment order, so results
// are deterministic and match a sequential scan. The batches alias the
// containers' immutable column vectors and own their selection vectors: they
// stay valid, and keep showing the snapshot they were scanned at, after the
// statement's epoch pin is gone. The returned count is the rows selected;
// with countOnly it is all that is returned.
func (s *Session) scanBatches(tbl *catalog.Table, where expr.Expr, vis storage.Visibility, stats *scanStats, opts scanOpts) ([]*storage.Batch, int64, error) {
	if stats.table == "" {
		stats.table = tbl.Def.Name
	}
	stats.vectorized = true
	scanStart := profClock(stats.prof)
	hr, residual := extractHashRange(where, tbl)
	pred := vexec.Compile(residual, tbl.Def.Schema, tbl.SegIdx)
	jobs, err := s.buildSegJobs(tbl, hr)
	if err != nil {
		return nil, 0, err
	}
	results := make([]segResult, len(jobs))
	runSegJobs(len(jobs), func(i int) {
		res := &results[i]
		res.scanRows = float64(jobs[i].store.TotalRows())
		remote := opts.gather && jobs[i].homeNode != s.node.ID
		var fs *vexec.FilterStats
		if stats.prof != nil {
			fs = &res.fstats
		}
		err := jobs[i].store.ScanBatchesPruned(vis, hr, s.pruneFunc(pred, res), func(b *storage.Batch) bool {
			if err := pred.FilterBatchStats(b, fs); err != nil {
				res.err = err
				return false
			}
			if opts.limit >= 0 && int64(len(b.Sel)) > opts.limit-res.count {
				b.Sel = b.Sel[:opts.limit-res.count]
			}
			res.count += int64(len(b.Sel))
			if len(b.Sel) > 0 && !opts.countOnly {
				if opts.cols != nil {
					b = b.Project(opts.cols)
				}
				if remote {
					res.shuffleB += float64(batchWireSize(b))
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

	// Deterministic merge in segment order; per-segment stats fold into the
	// query's accounting on the coordinating goroutine only.
	var out []*storage.Batch
	var fstats vexec.FilterStats
	var count, scanned, contSeen, contPruned, contNoStats int64
	for i := range results {
		res := &results[i]
		if res.err != nil {
			return nil, 0, res.err
		}
		stats.scanRows[sim.VName(jobs[i].homeNode)] += res.scanRows
		if res.shuffleB > 0 {
			stats.shuffle[[2]string{sim.VName(jobs[i].homeNode), s.node.Name}] += res.shuffleB
		}
		count += res.count
		scanned += int64(res.scanRows)
		fstats.KernelRows += res.fstats.KernelRows
		fstats.ResidualRows += res.fstats.ResidualRows
		contSeen += res.contSeen
		contPruned += res.contPruned
		contNoStats += res.contNoStats
		out = append(out, res.batches...)
	}
	if opts.limit >= 0 && count > opts.limit {
		out, count = limitBatches(out, opts.limit), opts.limit
	}
	stats.contScanned += contSeen - contPruned
	stats.contPruned += contPruned
	s.raiseZoneMapSkipped(tbl.Def.Name, pred.HasZoneChecks(), contNoStats, contSeen)
	if stats.prof != nil {
		detail := fmt.Sprintf("%d segments, %d kernels", len(jobs), pred.NumKernels())
		if contPruned > 0 {
			detail += fmt.Sprintf(", zone maps pruned %d/%d containers", contPruned, contSeen)
		}
		if opts.countOnly {
			detail += ", count pushdown"
		}
		if opts.limit >= 0 {
			detail += fmt.Sprintf(", limit %d pushed down", opts.limit)
		}
		stats.prof.add(opStat{
			name: "scan " + tbl.Def.Name, rowsIn: scanned, rowsOut: count,
			vecRows: fstats.KernelRows, resRows: fstats.ResidualRows,
			dur: time.Since(scanStart), detail: detail,
		})
	}
	return out, count, nil
}

// limitBatches cuts a batch list down to its first limit selected rows.
func limitBatches(batches []*storage.Batch, limit int64) []*storage.Batch {
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

// replicaFor returns the store serving ring position pos of the table, plus
// the ID of the node actually serving, failing over to a buddy replica on a
// surviving node when the position's own node is not UP. Only UP nodes serve
// reads: a DOWN or RECOVERING node's stores may be missing writes it slept
// through.
func (s *Session) replicaFor(tbl *catalog.Table, pos int) (*storage.Store, int, error) {
	if s.cluster.nodeUp(tbl.Ring[pos]) {
		return tbl.Stores[pos], tbl.Ring[pos], nil
	}
	n := len(tbl.Ring)
	for r := range tbl.Buddies {
		// Buddy replica r of position pos lives at ring position (pos+r+1)
		// mod n.
		host := (pos + r + 1) % n
		if s.cluster.nodeUp(tbl.Ring[host]) {
			return tbl.Buddies[r][host], tbl.Ring[host], nil
		}
	}
	if !tbl.Def.Segmented {
		// Unsegmented tables are fully replicated: any live node serves.
		for p := range tbl.Stores {
			if s.cluster.nodeUp(tbl.Ring[p]) {
				return tbl.Stores[p], tbl.Ring[p], nil
			}
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

// extractHashRange pulls `HASH(segcols) >= lo` / `HASH(segcols) < hi`
// conjuncts matching the table's segmentation out of the predicate, returning
// the combined ring range and the residual predicate. This is the engine
// optimization that makes the connector's locality-aware partition queries
// (§3.1.2) cheap: the range test runs against precomputed segment hashes.
func extractHashRange(where expr.Expr, tbl *catalog.Table) (vhash.Range, expr.Expr) {
	full := vhash.Range{Lo: 0, Hi: vhash.RingSize}
	if where == nil {
		return full, nil
	}
	conjuncts := splitConjuncts(where, nil)
	hr := full
	var residual []expr.Expr
	for _, c := range conjuncts {
		lo, hi, ok := hashBound(c, tbl)
		if !ok {
			residual = append(residual, c)
			continue
		}
		if lo != nil && *lo > hr.Lo {
			hr.Lo = *lo
		}
		if hi != nil && *hi < hr.Hi {
			hr.Hi = *hi
		}
	}
	return hr, expr.Conjoin(residual...)
}

func splitConjuncts(e expr.Expr, dst []expr.Expr) []expr.Expr {
	if a, ok := e.(*expr.And); ok {
		return splitConjuncts(a.R, splitConjuncts(a.L, dst))
	}
	return append(dst, e)
}

// hashBound recognizes HASH(cols) CMP literal conjuncts over the table's
// segmentation expression and converts them to ring bounds.
func hashBound(e expr.Expr, tbl *catalog.Table) (lo, hi *uint64, ok bool) {
	cmp, isCmp := e.(*expr.Cmp)
	if !isCmp {
		return nil, nil, false
	}
	h, isHash := cmp.L.(*expr.HashFn)
	lit, isLit := cmp.R.(*expr.Lit)
	if !isHash || !isLit || lit.V.Null {
		return nil, nil, false
	}
	if !hashMatchesSegmentation(h, tbl) {
		return nil, nil, false
	}
	n := lit.V.AsInt()
	if n < 0 {
		n = 0
	}
	u := uint64(n)
	switch cmp.Op {
	case expr.GE:
		return &u, nil, true
	case expr.GT:
		v := u + 1
		return &v, nil, true
	case expr.LT:
		return nil, &u, true
	case expr.LE:
		v := u + 1
		return nil, &v, true
	default:
		return nil, nil, false
	}
}

// hashMatchesSegmentation reports whether a HASH(...) call computes exactly
// the table's segmentation hash: HASH(*) for synthetic-hash relations
// (unsegmented tables), or HASH(c1, ..., ck) naming the segmentation columns
// in order.
func hashMatchesSegmentation(h *expr.HashFn, tbl *catalog.Table) bool {
	if len(h.Args) == 0 {
		// HASH(*): matches when the table's per-row hashes are whole-row
		// synthetic hashes, i.e. no explicit segmentation columns.
		return len(tbl.SegIdx) == 0
	}
	if len(h.Args) != len(tbl.SegIdx) {
		return false
	}
	for i, a := range h.Args {
		col, ok := a.(*expr.Col)
		if !ok {
			return false
		}
		if tbl.Def.Schema.ColIndex(col.Name) != tbl.SegIdx[i] {
			return false
		}
	}
	return true
}

// joinShape resolves a join step's ON columns against its two input schemas
// and builds the output schema: left columns then right columns, names
// qualified by their relation (the left side only at the first step — lref
// is nil once the left input is itself a join result).
func joinShape(ls types.Schema, lref *vsql.TableRef, rs types.Schema, jc *vsql.JoinClause) (li, ri int, out types.Schema, err error) {
	li = resolveJoinCol(ls, jc.LeftCol)
	ri = resolveJoinCol(rs, jc.RightCol)
	// The ON columns may be written either way around; try swapping.
	if li < 0 || ri < 0 {
		li = resolveJoinCol(ls, jc.RightCol)
		ri = resolveJoinCol(rs, jc.LeftCol)
	}
	if li < 0 || ri < 0 {
		return 0, 0, out, fmt.Errorf("vertica: join columns %q/%q not found", jc.LeftCol, jc.RightCol)
	}
	for _, c := range ls.Cols {
		name := c.Name
		if lref != nil {
			name = qualify(lref, c.Name)
		}
		out.Cols = append(out.Cols, types.Column{Name: name, T: c.T})
	}
	for _, c := range rs.Cols {
		out.Cols = append(out.Cols, types.Column{Name: qualify(&jc.Right, c.Name), T: c.T})
	}
	return li, ri, out, nil
}

// joinStep performs one inner equi-join of the planner's pipeline on the
// typed batch kernel: each side's key table and probe read column vectors,
// and only matched pairs box into rows — in left-major order, whichever
// side the hash table is built on.
func joinStep(left []*storage.Batch, ls types.Schema, lref *vsql.TableRef,
	right []*storage.Batch, rs types.Schema, jc *vsql.JoinClause, buildLeft bool) ([]types.Row, types.Schema, error) {
	li, ri, out, err := joinShape(ls, lref, rs, jc)
	if err != nil {
		return nil, types.Schema{}, err
	}
	var rows []types.Row
	vexec.JoinBatches(left, li, right, ri, buildLeft, func(lb, lr, rb, rr int32) {
		row := make(types.Row, 0, len(out.Cols))
		for _, c := range left[lb].Cols {
			row = append(row, c.Get(int(lr)))
		}
		for _, c := range right[rb].Cols {
			row = append(row, c.Get(int(rr)))
		}
		rows = append(rows, row)
	})
	return rows, out, nil
}

// resolveJoinCol finds a join column in a schema: the full (possibly
// qualified) name first — ColIndex's suffix fallback handles a qualified name
// against an unqualified base-table schema, and exact match handles it
// against an already-qualified join schema — then the bare column name.
func resolveJoinCol(schema types.Schema, name string) int {
	if i := schema.ColIndex(name); i >= 0 {
		return i
	}
	return schema.ColIndex(stripQualifier(name))
}

func stripQualifier(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}

func qualify(tr *vsql.TableRef, col string) string {
	q := tr.Alias
	if q == "" {
		q = tr.Name
	}
	return q + "." + col
}

// recordQuery emits the QueryFlowEv for a completed SELECT. A columnar
// result is weighed from its vectors; the numbers are those its boxed rows
// would give.
func (s *Session) recordQuery(res *Result, stats *scanStats) {
	if s.obsv == nil {
		return
	}
	bytes := 0.0
	for _, r := range res.Rows {
		for _, v := range r {
			bytes += float64(textCellSize(v))
		}
	}
	for _, b := range res.Batches {
		bytes += float64(batchTextSize(b))
	}
	s.record(sim.Event{
		Type:        sim.QueryFlowEv,
		VNode:       s.node.Name,
		CNode:       s.peer,
		ResultBytes: bytes,
		ResultRows:  float64(res.NumRows()),
		ScanRows:    stats.scanRows,
		Shuffle:     stats.shuffle,
	})
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
