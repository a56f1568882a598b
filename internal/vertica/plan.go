package vertica

import (
	"context"
	"fmt"
	"strings"
	"time"

	"vsfabric/internal/catalog"
	"vsfabric/internal/expr"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vexec"
	"vsfabric/internal/vhash"
	"vsfabric/internal/vsql"
)

// This file is the one description of a SELECT. planSelect decides the
// statement's shape — relation kinds, join order, pushdowns, which operators
// run — and writes it down as a flat, execution-ordered list of plan nodes.
// run executes that list, EXPLAIN prints its estimates, PROFILE prints the
// actuals a run filled in, and v_monitor.query_plans summarizes it. A shape
// decision is made in planSelect or nowhere.

// planOp is the operator vocabulary.
type planOp uint8

const (
	opScan planOp = iota
	opJoin
	opFilter
	opGroupBy
	opProject
	opSort
	opLimit
)

var opNames = [...]string{"scan", "join", "filter", "group-by", "project", "sort", "limit"}

// planNode is one operator of a plan: what the planner decided (op, target,
// estimate, detail, and the typed arguments the operator runs with) and what a
// run observed. Only the arguments of the node's own op are set.
type planNode struct {
	op     planOp
	target string       // relation scanned or attached; "" for the other operators
	est    int64        // planner's output-row estimate; estUnknown = unsized
	detail string       // the decision in words, fixed at plan time
	schema types.Schema // the operator's output schema

	// scan: a base table (tbl, with the compiled predicate and the segment
	// jobs the run visits), a view (its own plan), or a system table
	// (synthesized at plan time: its schema is only known with its rows); a
	// join input of the latter two filters its rows by pred at the scan.
	// filter: the compiled predicate alone.
	tbl  *catalog.Table
	pred *vexec.Pred
	jobs []segJob
	opts scanOpts
	view *selectPlan
	rows []types.Row
	perm bool // a view with ORDER BY, which runScan lays out: a Sel reads ascending
	// join: the ON columns' input indexes, and the input columns each side
	// contributes to the output (nil: all of them)
	clause       *vsql.JoinClause
	li, ri       int
	buildLeft    bool
	lcols, rcols []int
	// group-by
	agg *aggPlan
	// project: pick re-arranges the input batches' vectors, proj builds new
	// ones; with neither the input passes through
	pick []int
	proj []projCol
	// sort
	orderBy []vsql.OrderItem
	sortIdx []int
	// limit
	limit int64

	// Plan-time container estimates of a base scan, filled by sizeContainers
	// for EXPLAIN only (a run counts the real thing).
	estContainers, estPruned int64

	// Actuals, filled by run. The kernel/residual split (work: a base scan's
	// filter fills the rest of it too) and the duration are only collected
	// under PROFILE.
	rowsIn, rowsOut      int64
	work                 vexec.FilterStats
	contSeen, contPruned int64
	keyPath              string // group-by: the hash table's key strategy
	shared               bool   // join: the output is the probe batches, narrowed
	dur                  time.Duration
}

// selectPlan is one SELECT's plan. A view is a nested selectPlan on its scan
// node; joins are left-deep, so execution order is list order.
type selectPlan struct {
	vis       storage.Visibility // the read context planned under and run at
	nodes     []planNode
	schema    types.Schema // result-set schema
	est       int64        // source cardinality estimate (query_plans.estimated_rows)
	joinOrder string       // "a JOIN b JOIN c"; "" for single-relation queries
	pushdown  string       // "count", "group-by", or ""
}

func (p *selectPlan) add(n planNode) { p.nodes = append(p.nodes, n) }

// each visits every node in execution order, a view's nodes before the scan
// node that consumes them.
func (p *selectPlan) each(fn func(*planNode)) {
	for i := range p.nodes {
		n := &p.nodes[i]
		if n.view != nil {
			n.view.each(fn)
		}
		fn(n)
	}
}

// isSystemRelation reports whether name is a v_monitor / v_catalog virtual
// table.
func isSystemRelation(name string) bool {
	name = strings.ToLower(name)
	return strings.HasPrefix(name, "v_monitor.") || strings.HasPrefix(name, "v_catalog.")
}

// planRelation resolves one FROM/JOIN relation to its scan node. A base
// table's node still needs planBaseScan.
func (s *Session) planRelation(tr *vsql.TableRef, vis storage.Visibility) (planNode, error) {
	n := planNode{op: opScan, target: tr.Name, est: estUnknown}
	var err error
	if isSystemRelation(tr.Name) {
		n.detail = "system table, columnized once"
		n.rows, n.schema, err = s.systemTable(strings.ToLower(tr.Name), vis)
		return n, err
	}
	if view, ok := s.cluster.cat.View(tr.Name); ok {
		sub, err := vsql.Parse(view.SelectSQL)
		if err != nil {
			return n, fmt.Errorf("vertica: view %q definition: %w", view.Name, err)
		}
		subSel, ok := sub.(*vsql.Select)
		if !ok {
			return n, fmt.Errorf("vertica: view %q is not a SELECT", view.Name)
		}
		n.detail, n.perm = "view expansion", len(subSel.OrderBy) > 0
		if n.view, err = s.planSelect(subSel, vis); err == nil {
			n.schema = n.view.schema
		}
		return n, err
	}
	tbl, ok := s.cluster.cat.Table(tr.Name)
	if !ok {
		return n, fmt.Errorf("vertica: relation %q does not exist", tr.Name)
	}
	n.tbl, n.target, n.schema = tbl, tbl.Def.Name, tbl.Def.Schema
	return n, nil
}

// planBaseScan fixes what a base-table scan visits: the predicate compiles to
// typed kernels, one range kernel for its segmentation HASH conjuncts and zone
// checks, the range those conjuncts admit prunes segments, and the surviving
// segments resolve to live replicas. The estimate is the physical rows those
// replicas hold. This is what makes the connector's locality-aware partition
// queries (§3.1.2) cheap.
func (s *Session) planBaseScan(n *planNode, where expr.Expr, opts scanOpts) error {
	n.pred = vexec.Compile(where, n.tbl.Def.Schema, n.tbl.SegIdx)
	n.opts = opts
	var err error
	if n.jobs, err = s.buildSegJobs(n.tbl, n.pred.Ring()); err != nil {
		return err
	}
	n.est = 0
	for _, j := range n.jobs {
		n.est += int64(j.totalRows)
	}
	return nil
}

// filterNode is a WHERE clause over derived batches — join output, a view, a
// system table. Such batches carry no stored hashes, so the predicate's HASH
// conjuncts run compiled (vexec decides that per batch).
func filterNode(where expr.Expr, schema types.Schema, est int64, detail string) planNode {
	return planNode{op: opFilter, est: est, detail: detail, schema: schema, pred: vexec.Compile(where, schema, nil)}
}

// planSelect is the only place a SELECT's shape is decided.
func (s *Session) planSelect(st *vsql.Select, vis storage.Visibility) (*selectPlan, error) {
	if err := s.bindSelectFuncs(st); err != nil {
		return nil, err
	}
	p := &selectPlan{vis: vis, nodes: make([]planNode, 0, 4), est: 1}
	grouped := hasAggregates(st) || len(st.GroupBy) > 0
	var (
		schema  types.Schema // the pipeline's current schema; FROM-less: no columns
		star    []int        // the schema columns `*` expands to; nil: all, in order
		counted bool         // the scan answers COUNT(*) itself
		picked  bool         // the scan's column pick is the projection
		err     error
	)
	switch {
	case st.From == nil:
		// One input row of no columns; the items evaluate against it.

	case len(st.Joins) > 0:
		if schema, star, err = s.planJoin(p, st, vis); err != nil {
			return nil, err
		}

	default:
		rel, err := s.planRelation(st.From, vis)
		if err != nil {
			return nil, err
		}
		if rel.tbl == nil {
			p.est = estUnknown
			p.add(rel)
			schema = rel.schema
			if st.Where != nil {
				p.add(filterNode(st.Where, schema, p.est, "residual over a view or system table"))
			}
			break
		}
		// Late materialization: the scan carries only the columns the SELECT
		// list touches. The WHERE clause needs none — it is evaluated on the
		// column vectors.
		full := rel.schema
		// LIMIT pushes into the scan only when each scanned row maps 1:1 to an
		// output row: no aggregation, no grouping, no reordering.
		opts := scanOpts{limit: -1, gather: true}
		if !grouped && len(st.OrderBy) == 0 {
			opts.limit = st.Limit
		}
		switch {
		case countPushdownEligible(st):
			// Answered from selection-vector popcounts: no batch is kept.
			p.pushdown, counted = "count", true
			opts = scanOpts{limit: -1, countOnly: true}
			name := st.Items[0].Alias
			if name == "" {
				name = "count"
			}
			rel.schema = types.Schema{Cols: []types.Column{{Name: name, T: types.Int64}}}
		case grouped:
			// Every column, consumed where it is scanned.
			p.pushdown = "group-by"
			opts = scanOpts{limit: -1}
		default:
			// A select list of bare columns is picked by the scan itself; one
			// that does not resolve is the project node's to report.
			out, proj, err := planProject(st.Items, full, nil)
			if opts.cols = passThrough(proj); err == nil && opts.cols != nil {
				rel.schema, picked = out, true
			} else {
				names, _ := readNames(st, nil) // nil when every column is read
				opts.cols, rel.schema = resolveNeedCols(full, names)
			}
		}
		if err := s.planBaseScan(&rel, st.Where, opts); err != nil {
			return nil, err
		}
		p.est = rel.est
		p.add(rel)
		schema = rel.schema
	}

	est := p.est
	switch {
	case counted:
	case grouped:
		n := planNode{op: opGroupBy, est: estUnknown, detail: "vectorized hash aggregation"}
		if n.agg, err = buildAggPlan(st, schema); err != nil {
			return nil, err
		}
		schema, est = n.agg.out, estUnknown
		n.schema = schema
		p.add(n)
	default:
		n := planNode{op: opProject, est: est, schema: schema, detail: "column pick in the scan, no row boxed"}
		if !picked {
			if n.schema, n.proj, err = planProject(st.Items, schema, star); err != nil {
				return nil, err
			}
			n.detail = "expressions compiled to column vectors"
			if pick := passThrough(n.proj); st.From == nil {
				n.detail = "FROM-less SELECT"
			} else if pick != nil {
				// Every item `*` or a bare column: the input's own vectors,
				// re-arranged — the shape of every V2S partition query.
				n.pick, n.proj, n.detail = pick, nil, "column pick over the input batches, no row boxed"
			}
		}
		schema = n.schema
		p.add(n)
	}
	if len(st.OrderBy) > 0 {
		n := planNode{op: opSort, est: est, schema: schema, orderBy: st.OrderBy}
		if n.sortIdx, err = orderIndexes(schema, st.OrderBy); err != nil {
			return nil, err
		}
		p.add(n)
	}
	if st.Limit >= 0 {
		p.add(planNode{op: opLimit, est: st.Limit, schema: schema, limit: st.Limit})
	}
	p.schema = schema
	return p, nil
}

// countPushdownEligible reports whether a single-base-table SELECT is exactly
// COUNT(*) — the engine half of the connector's COUNT pushdown (§3.1.1).
func countPushdownEligible(st *vsql.Select) bool {
	if len(st.GroupBy) > 0 || len(st.Items) != 1 {
		return false
	}
	return st.Items[0].Agg == vsql.AggCount && st.Items[0].Arg == nil
}

// sizeContainers fills a base scan's plan-time container estimates: how many
// ROS containers the chosen replicas hold and how many of them the predicate
// prunes (zone maps or hash span), over the same jobs and predicate a run
// would use.
func (n *planNode) sizeContainers() {
	for _, job := range n.jobs {
		for _, c := range job.store.Containers() {
			n.estContainers++
			if prunes(n.pred, c) {
				n.estPruned++
			}
		}
	}
}

// name is the node's PROFILE operator name.
func (n *planNode) name() string {
	if n.op == opScan {
		return "scan " + n.target
	}
	return opNames[n.op]
}

// describe renders the node's detail: the plan-time decision plus its numeric
// arguments, with the container estimates (EXPLAIN) or what the run observed
// (PROFILE, actual).
func (n *planNode) describe(actual bool) string {
	d := n.detail
	switch n.op {
	case opScan:
		if n.tbl == nil {
			break
		}
		d = fmt.Sprintf("%d segments, %d kernels", len(n.jobs), n.pred.NumKernels())
		if n.opts.countOnly {
			d += ", count pushdown"
		}
		if n.opts.limit >= 0 {
			d += fmt.Sprintf(", limit %d pushed down", n.opts.limit)
		}
		switch {
		case actual && n.contPruned > 0:
			d += fmt.Sprintf(", zone maps pruned %d/%d containers", n.contPruned, n.contSeen)
		case !actual && (n.pred.HasZoneChecks() || n.estPruned > 0):
			d += fmt.Sprintf(", zone maps prune %d/%d containers", n.estPruned, n.estContainers)
		}
		if !actual {
			break
		}
		if n.work.IdentityRows > 0 {
			d += fmt.Sprintf(", %d rows read as whole containers", n.work.IdentityRows)
		}
		if r := n.pred.Ring(); !r.Empty() && r.Width() < vhash.RingSize {
			d += fmt.Sprintf(", hash range tested %d rows", n.work.RangeRows)
		}
	case opJoin:
		d = fmt.Sprintf("hash join %s = %s, build %s side, carries %d columns", n.clause.LeftCol, n.clause.RightCol, n.buildSide(), len(n.schema.Cols))
		switch {
		case actual && n.shared:
			d += ", probe batches shared"
		case actual:
			d += ", probe gathered by pairs"
		}
	case opGroupBy:
		if actual {
			d += fmt.Sprintf(" (%s keys), %d groups", n.keyPath, n.rowsOut)
		}
	case opSort:
		d = fmt.Sprintf("order by %d keys", len(n.orderBy))
	case opLimit:
		d = fmt.Sprintf("LIMIT %d", n.limit)
	}
	return d
}

func (n *planNode) buildSide() string {
	if n.buildLeft {
		return "left"
	}
	return "right"
}

// estValue renders a planner estimate: SQL NULL for an unsized relation.
func estValue(est int64) types.Value {
	if est >= estUnknown {
		return types.NullValue(types.Int64)
	}
	return types.IntValue(est)
}

// run executes a plan: one pass over its nodes, each a switch arm over an
// existing kernel. What flows between nodes, and out of the last one, is column
// batches, each node's of its declared schema. The first scan is the
// pipeline's left side; every later scan is the right input of the join node
// that follows it. prof turns on clock reads and the kernel/residual split
// (PROFILE only). Cancelling ctx stops the run between nodes and between the
// batches a scan, filter, project or group-by node works through.
func (s *Session) run(ctx context.Context, p *selectPlan, prof bool) ([]*storage.Batch, error) {
	var cur, right []*storage.Batch
	if p.nodes[0].op != opScan {
		cur = []*storage.Batch{{Sel: []int32{0}}} // FROM-less input: one row of no columns
	}
	for i := range p.nodes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := &p.nodes[i]
		// The clock is read only under PROFILE: the common path stays free of
		// time syscalls.
		var start time.Time
		if prof {
			start = time.Now()
		}
		if n.op != opScan { // a scan counts what it visits itself
			n.rowsIn = int64(storage.SelectedRows(cur))
		}
		var err error
		switch n.op {
		case opScan:
			if i == 0 {
				cur, err = s.runScan(ctx, n, p.vis, prof)
			} else {
				right, err = s.runScan(ctx, n, p.vis, prof)
			}

		case opJoin:
			nLeft, nRight := n.rowsIn, int64(storage.SelectedRows(right))
			n.rowsIn, n.work.KernelRows = nLeft+nRight, nLeft+nRight
			cur, err = joinStep(n, cur, right)
			buildRows := nRight
			if n.buildLeft {
				buildRows = nLeft
			}
			s.raiseJoinBuildEvent(buildRows, n.buildSide(), n.clause.LeftCol, n.clause.RightCol)

		case opFilter:
			cur, err = filterBatches(ctx, n, cur)

		case opGroupBy:
			cur, err = runGroupBy(ctx, n, cur)

		case opProject:
			switch {
			case n.pick != nil:
				for k, b := range cur {
					cur[k] = b.Project(n.pick)
				}
			case n.proj != nil:
				cur, err = projectBatches(ctx, n.schema, n.proj, cur)
			}

		case opSort:
			cur, err = sortBatches(n, cur)

		case opLimit:
			if n.rowsIn > n.limit {
				cur = limitBatches(cur, n.limit)
			}
		}
		if err != nil {
			return nil, err
		}
		if n.op != opScan {
			n.rowsOut = int64(storage.SelectedRows(cur))
		}
		if prof {
			n.dur = time.Since(start)
		}
	}
	return cur, nil
}

// filterBatches narrows each batch by the node's predicate, drops the batches
// it empties, and counts the kernel/residual split. Cancelling ctx stops it
// between batches.
func filterBatches(ctx context.Context, n *planNode, batches []*storage.Batch) ([]*storage.Batch, error) {
	var fs vexec.FilterStats
	kept := batches[:0]
	for _, b := range batches {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := n.pred.FilterBatchStats(b, &fs); err != nil {
			return nil, err
		}
		if len(b.Sel) > 0 {
			kept = append(kept, b)
		}
	}
	n.work = fs
	return kept, nil
}

// runScan produces one scan node's batches. A base table scans; a view runs
// its own plan and hands on its batches; a system table columnizes the rows it
// was planned with. The derived batches take the node's schema and carry no
// hashes: a view's rows are not the rows its base table's segmentation hashed.
// A derived input's predicate filters them here.
func (s *Session) runScan(ctx context.Context, n *planNode, vis storage.Visibility, prof bool) ([]*storage.Batch, error) {
	if n.tbl != nil {
		batches, count, err := s.scanBatches(ctx, n, vis, prof)
		if n.opts.countOnly {
			batches = []*storage.Batch{{Schema: n.schema, Cols: []storage.Column{&storage.Int64Column{Vals: []int64{count}}}, Sel: []int32{0}}}
		}
		return batches, err
	}
	var batches []*storage.Batch
	var err error
	if n.view != nil {
		if batches, err = s.run(ctx, n.view, prof); err == nil && n.perm && len(batches) > 0 {
			cols, rows, derr := storage.DenseColumns(n.schema, batches)
			batches, err = []*storage.Batch{{Cols: cols, Sel: storage.IdentitySel(rows)}}, derr
		}
		for _, b := range batches {
			b.Schema, b.Hashes, b.HashSpan = n.schema, nil, vhash.Range{}
		}
	} else {
		batches, err = columnize(n.rows, n.schema)
	}
	n.rowsIn = int64(storage.SelectedRows(batches))
	if err == nil && n.pred != nil {
		batches, err = filterBatches(ctx, n, batches)
	}
	n.rowsOut = int64(storage.SelectedRows(batches))
	return batches, err
}

// columnize is the one bridge from rows to the batch pipeline, for the rows
// the engine synthesizes in Go: a system table at its scan node, and the
// result sets of EXPLAIN, PROFILE and ALTER CLUSTER. Each cell meets its
// column by types.Coerce (storage.Builder.Append), so a row that does not fit
// the declared schema is an error.
func columnize(rows []types.Row, schema types.Schema) ([]*storage.Batch, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	cols, err := storage.ColumnsFromRows(rows, schema)
	if err != nil {
		return nil, fmt.Errorf("vertica: relation does not fit its schema: %w", err)
	}
	return []*storage.Batch{{Schema: schema, Cols: cols, Sel: storage.IdentitySel(len(rows))}}, nil
}
