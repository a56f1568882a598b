package vertica

import (
	"strings"

	"vsfabric/internal/types"
	"vsfabric/internal/vsql"
)

// This file is the cost-based join planner — multi-way joins are ordered by
// estimated cardinality (smallest build side first), each join's build side
// is the smaller of its two inputs — and EXPLAIN, which renders a plan's
// estimates without executing it.

// estUnknown is the cardinality assigned to relations the planner cannot
// size (views, system tables): large, so they are attached last and never
// chosen as a build side over a sized base table.
const estUnknown = int64(1) << 40

// plannedJoin is one planned join: the clause, which side the hash table is
// built on, and the estimated cardinality of the join's output.
type plannedJoin struct {
	clause    *vsql.JoinClause
	buildLeft bool
	est       int64
}

// relationEst estimates a relation's cardinality from catalog statistics:
// the physical row count of one replica of each segment (one store for a
// replicated unsegmented table). Views and system tables are unsized.
func (s *Session) relationEst(tr *vsql.TableRef) int64 {
	if isSystemRelation(tr.Name) {
		return estUnknown
	}
	if _, ok := s.cluster.cat.View(tr.Name); ok {
		return estUnknown
	}
	tbl, ok := s.cluster.cat.Table(tr.Name)
	if !ok {
		return estUnknown
	}
	var n int64
	for _, seg := range tbl.Segs(0) {
		n += int64(tbl.Replicas(seg)[0].Store.TotalRows())
	}
	return n
}

// displayName is the alias if present, else the table name.
func displayName(tr *vsql.TableRef) string {
	if tr.Alias != "" {
		return tr.Alias
	}
	return tr.Name
}

// qualifierOf returns the lowercased qualifier of a possibly dotted column
// reference ("o.cid" → "o"), or "" when unqualified.
func qualifierOf(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return strings.ToLower(name[:i])
	}
	return ""
}

// clauseConnects reports whether a join clause's ON condition can reference
// the already-attached relations: one of its columns is qualified by an
// attached display name, or either column is unqualified (those resolve against
// the accumulated schema at execution time).
func clauseConnects(jc *vsql.JoinClause, attached map[string]bool) bool {
	lq, rq := qualifierOf(jc.LeftCol), qualifierOf(jc.RightCol)
	if lq == "" || rq == "" {
		return true
	}
	return attached[lq] || attached[rq]
}

// planJoins orders the query's joins by estimated cardinality: starting from
// the FROM relation, it repeatedly attaches the connectable clause whose
// right relation is smallest (ties and unconnectable leftovers fall back to
// syntactic order), and builds each join's hash table on the smaller input.
// order is the chosen attach order by display name ("orders JOIN customers").
func (s *Session) planJoins(st *vsql.Select) (steps []plannedJoin, order string) {
	order = displayName(st.From)
	attached := make(map[string]bool, 1+len(st.Joins))
	// A qualifier names a relation by its display name only: a join output's
	// columns carry no other.
	attach := func(tr *vsql.TableRef) { attached[strings.ToLower(displayName(tr))] = true }
	attach(st.From)
	remaining := append([]*vsql.JoinClause(nil), st.Joins...)
	estLeft := s.relationEst(st.From)
	for len(remaining) > 0 {
		best := -1
		var bestEst int64
		for i, jc := range remaining {
			if !clauseConnects(jc, attached) {
				continue
			}
			est := s.relationEst(&jc.Right)
			if best < 0 || est < bestEst {
				best, bestEst = i, est
			}
		}
		if best < 0 {
			// Nothing connects (a cross-reference the executor will reject, or
			// aliases the planner cannot see through): keep syntactic order.
			best, bestEst = 0, s.relationEst(&remaining[0].Right)
		}
		jc := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		buildLeft := estLeft < bestEst
		// FK-style equi-joins keep roughly the larger side's cardinality.
		estLeft = max(estLeft, bestEst)
		steps = append(steps, plannedJoin{clause: jc, buildLeft: buildLeft, est: estLeft})
		attach(&jc.Right)
		order += " JOIN " + displayName(&jc.Right)
	}
	return steps, order
}

// explainSchema is the EXPLAIN statement's result-set contract: one row per
// plan step in execution order.
var explainSchema = types.Schema{Cols: []types.Column{
	{Name: "step", T: types.Int64},
	{Name: "operator", T: types.Varchar},
	{Name: "target", T: types.Varchar},
	{Name: "est_rows", T: types.Int64},
	{Name: "containers", T: types.Int64},
	{Name: "pruned", T: types.Int64},
	{Name: "detail", T: types.Varchar},
}}

// executeExplain is plan + render: EXPLAIN <select> plans the statement
// exactly as running it would and prints each node's estimate columns. It
// executes nothing and records nothing.
func (s *Session) executeExplain(ex *vsql.Explain) (*Result, error) {
	vis, err := s.selectSnapshot(ex.Select)
	if err != nil {
		return nil, err
	}
	plan, err := s.planSelect(ex.Select, vis)
	if err != nil {
		return nil, err
	}
	var rows []types.Row
	add := func(op, target string, est types.Value, containers, pruned int64, detail string) {
		rows = append(rows, types.Row{
			types.IntValue(int64(len(rows) + 1)), types.StringValue(op), types.StringValue(target), est,
			types.IntValue(containers), types.IntValue(pruned), types.StringValue(detail),
		})
	}
	plan.each(func(n *planNode) {
		if n.tbl != nil {
			n.sizeContainers()
		}
		add(opNames[n.op], n.target, estValue(n.est), n.estContainers, n.estPruned, n.describe(false))
	})
	batches, err := columnize(rows, explainSchema)
	return &Result{Schema: explainSchema, Batches: batches, Epoch: vis.Epoch}, err
}
