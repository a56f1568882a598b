package core

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"vsfabric/internal/client"
	"vsfabric/internal/obs"
	"vsfabric/internal/resilience"
	"vsfabric/internal/spark"
	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

// querySpec is one node-local pull: a query against addr restricted to a
// hash range owned by that node. A partition executes one or more specs
// (Figure 4(a): with fewer partitions than segments, one task covers several
// whole segments, each pulled locally from its own node).
type querySpec struct {
	addr string
	lo   uint64
	hi   uint64
	// mod is used instead of a hash range for views: the synthetic
	// MOD(HASH(*), P) = mod partition predicate (§3.1.1). -1 = unused.
	mod  int
	modP int
}

// v2sRelation implements the read side (V2S, §3.1): Schema discovery from
// the catalog, pruned/filtered scans pinned to one epoch with hash-ring
// locality, and COUNT pushdown.
type v2sRelation struct {
	sc   *spark.Context
	pool *resilience.ResilientConnector
	opts V2SOptions
	desc *relDesc
}

// driverCtx is the context driver-side control queries run under: they carry
// the "driver" peer name but no sim task record (setup work is not part of
// any task's modeled cost).
func driverCtx() context.Context {
	return obs.WithPeer(context.Background(), "driver")
}

func newV2SRelation(sc *spark.Context, pool client.Connector, opts V2SOptions) (*v2sRelation, error) {
	// All connections — driver discovery and task scans — go through the
	// resilient pool; once the layout is known, its host set makes every
	// connect failover-capable across the whole cluster. The pool reports
	// every recovery action to the options' observer.
	rpool := resilience.NewResilient(pool, nil, opts.Retry)
	rpool.SetObserver(opts.Observer)
	ctx := driverCtx()
	conn, err := rpool.Connect(ctx, opts.Host)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	desc, err := describe(ctx, conn, opts.Table)
	if err != nil {
		return nil, err
	}
	lay, err := layout(ctx, conn, opts.Table, desc.segmented)
	if err != nil {
		return nil, err
	}
	rpool.SetHosts(lay.addrs)
	if opts.NumPartitions == 0 {
		opts.NumPartitions = 16
	}
	return &v2sRelation{sc: sc, pool: rpool, opts: opts, desc: desc}, nil
}

// Schema implements spark.BaseRelation.
func (r *v2sRelation) Schema() (types.Schema, error) { return r.desc.schema, nil }

func filtersSQL(filters []spark.Filter) (string, error) {
	conds, err := spark.FiltersSQL(filters)
	return strings.Join(conds, " AND "), err
}

// planPartitions computes the per-partition query specs from one plan's
// layout — the heart of §3.1.2. Segmented tables split the hash ring along
// segment boundaries so every spec is node-local; unsegmented tables (fully
// replicated) split the synthetic whole-row hash ring and spread connections
// round-robin; views use MOD(HASH(*), P) synthetic partitioning. With 1, 2 or
// 4 partitions per segment (or per ring, unsegmented), every range is a union
// of whole local segments (vhash.Split), so a store's containers cut from
// large writes are each inside a partition's range or disjoint from it, and
// the scan takes or skips them whole; any other count stays correct and still
// skips the local segments a range does not overlap.
func (r *v2sRelation) planPartitions(lay *planLayout) [][]querySpec {
	p := r.opts.NumPartitions
	specs := make([][]querySpec, p)
	switch {
	case r.desc.isView:
		for i := 0; i < p; i++ {
			specs[i] = []querySpec{{
				addr: lay.addrs[i%len(lay.addrs)],
				mod:  i, modP: p,
			}}
		}
	case !r.desc.segmented:
		// Replicated everywhere: any node answers any range locally.
		ranges := vhash.Split(vhash.Range{Lo: 0, Hi: vhash.RingSize}, p)
		for i := 0; i < p; i++ {
			specs[i] = []querySpec{{
				addr: lay.addrs[i%len(lay.addrs)],
				lo:   ranges[i].Lo, hi: ranges[i].Hi,
				mod: -1,
			}}
		}
	default:
		n := len(lay.addrs)
		if p >= n {
			// Figure 4(b): split each segment into ~p/n sub-ranges; each
			// partition gets exactly one node-local range. Partition indexes
			// interleave across segments so that however the scheduler
			// batches tasks, every node's connection load stays balanced.
			perSeg := make([][]vhash.Range, n)
			for s := 0; s < n; s++ {
				k := p/n + btoi(s < p%n)
				perSeg[s] = vhash.Split(vhash.Range{Lo: lay.segLo[s], Hi: lay.segHi[s]}, k)
			}
			idx := 0
			for slice := 0; idx < p; slice++ {
				for s := 0; s < n && idx < p; s++ {
					if slice >= len(perSeg[s]) {
						continue
					}
					rg := perSeg[s][slice]
					specs[idx] = []querySpec{{addr: lay.addrs[s], lo: rg.Lo, hi: rg.Hi, mod: -1}}
					idx++
				}
			}
		} else {
			// Figure 4(a): each partition covers several whole segments,
			// pulling each locally from its own node.
			for i := 0; i < p; i++ {
				loSeg, hiSeg := n*i/p, n*(i+1)/p
				for s := loSeg; s < hiSeg; s++ {
					specs[i] = append(specs[i], querySpec{
						addr: lay.addrs[s], lo: lay.segLo[s], hi: lay.segHi[s], mod: -1,
					})
				}
			}
		}
	}
	return specs
}

func nodeIndexOf(addrs []string, addr string) int {
	for i, a := range addrs {
		if a == addr {
			return i
		}
	}
	return 0
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// specSQL renders the partition query for one spec: the pinned epoch, the
// pruned column list, the node-local hash-range (or synthetic MOD)
// predicate, and any pushdown filters.
func (r *v2sRelation) specSQL(spec querySpec, cols []string, pushdown string, epoch uint64, countOnly bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "AT EPOCH %d SELECT ", epoch)
	if countOnly {
		b.WriteString("COUNT(*)")
	} else {
		b.WriteString(strings.Join(cols, ", "))
	}
	fmt.Fprintf(&b, " FROM %s WHERE ", r.opts.Table)
	if spec.mod >= 0 {
		fmt.Fprintf(&b, "MOD(HASH(*), %d) = %d", spec.modP, spec.mod)
	} else {
		fmt.Fprintf(&b, "%s >= %d AND %s < %d", r.desc.segExpr, spec.lo, r.desc.segExpr, spec.hi)
	}
	if pushdown != "" {
		fmt.Fprintf(&b, " AND (%s)", pushdown)
	}
	return b.String()
}

// planJob is the driver's one statement per V2S plan, on its own connection:
// the table's current layout together with the last closed epoch. The layout
// captured when the relation was created may predate a cluster membership
// change, and only the current ring's addresses are guaranteed to carry the
// table's segments. Every partition query reads AT the epoch, giving the job
// one consistent snapshot no matter when (or how often) its tasks run
// (§3.1.2); whatever epoch is pinned, the current layout answers it exactly
// (moved versions carry their full MVCC history). The layout is the plan's
// own, so concurrent plans of one relation share nothing but the pool.
func (r *v2sRelation) planJob(ctx context.Context) (*planLayout, error) {
	conn, err := r.pool.Connect(ctx, r.opts.Host)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	lay, err := layout(ctx, conn, r.opts.Table, r.desc.segmented)
	if err != nil {
		return nil, err
	}
	r.pool.SetHosts(lay.addrs)
	return lay, nil
}

// BuildScan implements spark.PrunedFilteredScan.
func (r *v2sRelation) BuildScan(requiredCols []string, filters []spark.Filter) (*spark.RDD[types.Row], error) {
	if len(requiredCols) == 0 {
		requiredCols = r.desc.schema.ColNames()
	}
	if _, _, err := r.desc.schema.Project(requiredCols); err != nil {
		return nil, err
	}
	pushdown, err := filtersSQL(filters)
	if err != nil {
		return nil, err
	}
	// The job's root span: driver-side planning runs inside it, and every
	// partition read (plus the engine spans it causes, on whichever node and
	// over whatever transport) parents under its identity. The root closes
	// when the scan is planned — tasks run later, lazily — so the root's own
	// duration covers planning; v_monitor.job_traces reports the job's
	// end-to-end duration as the extent of the whole trace.
	job := obs.Start(r.opts.Observer, "v2s.job", "driver")
	jctx := obs.WithSpan(driverCtx(), job)
	lay, err := r.planJob(jctx)
	if err != nil {
		job.End(err)
		return nil, err
	}
	epoch := lay.epoch
	specs := r.planPartitions(lay)
	if r.opts.DisableLocality {
		// Ablation: keep the unique non-overlapping ranges but connect each
		// task to the next node over, so every query gathers its data
		// across the internal network (the behaviour §3.1.2 eliminates).
		for i := range specs {
			for j := range specs[i] {
				specs[i][j].addr = lay.addrs[(nodeIndexOf(lay.addrs, specs[i][j].addr)+1)%len(lay.addrs)]
			}
		}
	}
	job.SetDetail(fmt.Sprintf("%s: %d partitions, epoch %d", r.opts.Table, len(specs), epoch))
	jobSC := job.SpanContext()
	job.End(nil)
	pool := r.pool
	rel := r
	return spark.NewRDD(r.sc, len(specs), func(tc *spark.TaskContext, p int) ([]types.Row, error) {
		if err := tc.Checkpoint("v2s.task_start"); err != nil {
			return nil, err
		}
		ctx := obs.WithSpanContext(tc.Context(), jobSC)
		sp := obs.StartChild(ctx, rel.opts.Observer, "v2s.partition", tc.ExecNode)
		sp.SetDetail(fmt.Sprintf("partition %d/%d: %d specs, epoch %d", p, len(specs), len(specs[p]), epoch))
		// Engine/wire spans from this task's queries parent under the
		// partition span, not the job directly.
		ctx = obs.WithSpan(ctx, sp)
		// Each spec's result is the client's one boxed slice. A partition of
		// one spec is that slice; several are held and concatenated once.
		parts := make([][]types.Row, 0, len(specs[p]))
		for _, spec := range specs[p] {
			// Execute retries the connect+execute pair with failover, so a
			// node dying mid-scan re-runs this spec's query against the next
			// host over — where the segment's buddy projection lives
			// (KSafety ≥ 1) — without burning a whole Spark task retry. The
			// query is a pinned-epoch read, so re-running it is free of
			// side effects and returns identical rows.
			sp.SetPeer(spec.addr)
			res, err := pool.Execute(ctx, spec.addr, rel.specSQL(spec, requiredCols, pushdown, epoch, false))
			if err != nil {
				sp.End(err)
				return nil, err
			}
			sp.AddRows(int64(len(res.Rows)))
			parts = append(parts, res.Rows)
		}
		sp.End(nil)
		if err := tc.Checkpoint("v2s.task_done"); err != nil {
			return nil, err
		}
		if len(parts) == 1 {
			return parts[0], nil
		}
		return slices.Concat(parts...), nil
	}), nil
}

// CountRows implements spark.CountableScan: COUNT(*) is pushed down and
// executed inside the database, one node-local count per segment (§3.1.1).
func (r *v2sRelation) CountRows(filters []spark.Filter) (int64, error) {
	pushdown, err := filtersSQL(filters)
	if err != nil {
		return 0, err
	}
	ctx := driverCtx()
	lay, err := r.planJob(ctx)
	if err != nil {
		return 0, err
	}
	specs := r.planPartitions(lay)
	total := int64(0)
	for _, group := range specs {
		for _, spec := range group {
			res, err := r.pool.Execute(ctx, spec.addr, r.specSQL(spec, nil, pushdown, lay.epoch, true))
			if err != nil {
				return 0, err
			}
			n, err := singleInt(res)
			if err != nil {
				return 0, err
			}
			total += n
		}
	}
	return total, nil
}
