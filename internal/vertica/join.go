package vertica

import (
	"fmt"
	"slices"
	"strings"

	"vsfabric/internal/expr"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vexec"
	"vsfabric/internal/vsql"
)

// This file is the join arm of a SELECT's plan and the join step that runs
// it. The arm reads the whole statement before it places a node, so a join
// gathers only what the plan reads: a WHERE conjunct that names one relation
// alone filters that relation's scan, each join step keeps only the columns a
// later node names, and a base input's scan carries only those columns and
// its join keys — C-Store's late materialization carried through the join.

// planJoin plans a SELECT with joins: each FROM-clause relation's scan node,
// in the attach order planJoins chose, followed by the join node that
// attaches it, then the residual WHERE above the last join. It returns the
// last join's schema and, when a `*` reads every column, that schema's column
// indexes in FROM-clause order — the order `*` expands to.
func (s *Session) planJoin(p *selectPlan, st *vsql.Select, vis storage.Visibility) (types.Schema, []int, error) {
	rels := []*vsql.TableRef{st.From}
	for _, jc := range st.Joins {
		rels = append(rels, &jc.Right)
	}
	pushed, residual := routeConjuncts(st.Where, rels)
	var steps []plannedJoin
	steps, p.joinOrder = s.planJoins(st)
	reads, every := readNames(st, residual)
	// after(k) is every name a node past the first k joins reads: the
	// statement's own and the ON columns of the joins still to come.
	after := func(k int) []string {
		names := slices.Clip(reads)
		for _, step := range steps[k:] {
			names = append(names, step.clause.LeftCol, step.clause.RightCol)
		}
		return names
	}
	input := func(r int) (planNode, error) {
		n, err := s.planRelation(rels[r], vis)
		switch {
		case err != nil:
			return n, err
		case n.tbl != nil:
			opts := scanOpts{limit: -1}
			if !every {
				opts.cols, n.schema = prune(n.schema, displayName(rels[r]), after(0))
			}
			return n, s.planBaseScan(&n, pushed[r], opts)
		case pushed[r] != nil:
			// A view's or system table's rows are derived: its conjuncts filter
			// them at its own scan node, the only node a right input passes.
			n.pred = vexec.Compile(pushed[r], n.schema, nil)
			n.detail += ", filtered by its WHERE conjuncts"
		}
		return n, nil
	}

	left, err := input(0)
	if err != nil {
		return types.Schema{}, nil, err
	}
	p.add(left)
	schema, lref := left.schema, st.From
	// owner[i] is the FROM-clause relation of output column i; it is only
	// read when nothing is pruned.
	owner := make([]int, len(schema.Cols))
	for k, step := range steps {
		r := 1 + slices.Index(st.Joins, step.clause)
		right, err := input(r)
		if err != nil {
			return types.Schema{}, nil, err
		}
		p.add(right)
		n := planNode{op: opJoin, target: displayName(rels[r]), est: step.est, clause: step.clause, buildLeft: step.buildLeft}
		if n.li, n.ri, n.schema, err = joinShape(schema, lref, right.schema, step.clause); err != nil {
			return types.Schema{}, nil, err
		}
		for range right.schema.Cols {
			owner = append(owner, r)
		}
		if !every {
			var keep []int
			if keep, n.schema = prune(n.schema, "", after(k+1)); keep != nil {
				w := len(schema.Cols)
				split, _ := slices.BinarySearch(keep, w)
				n.lcols, n.rcols = keep[:split], keep[split:]
				for i := range n.rcols {
					n.rcols[i] -= w
				}
			}
		}
		p.add(n)
		schema, lref, p.est = n.schema, nil, n.est
	}
	if residual != nil {
		p.add(filterNode(residual, schema, p.est, "post-join residual"))
	}
	if !every {
		return schema, nil, nil
	}
	var star []int
	for r := range rels {
		for i, o := range owner {
			if o == r {
				star = append(star, i)
			}
		}
	}
	return schema, star, nil
}

// routeConjuncts splits a WHERE clause into the conjuncts each FROM-clause
// relation answers alone and the residual only the join output can answer. A
// conjunct goes to a relation when every column it names is qualified by that
// relation's display name; one that names no column, an unqualified or
// ambiguous one, several relations, or the whole row (HASH(*)) stays residual.
func routeConjuncts(where expr.Expr, rels []*vsql.TableRef) ([]expr.Expr, expr.Expr) {
	pushed := make([]expr.Expr, len(rels))
	if where == nil {
		return pushed, nil
	}
	var residual []expr.Expr
	for _, c := range vexec.SplitConjuncts(where, nil) {
		if r := conjunctOwner(c, rels); r >= 0 {
			pushed[r] = expr.Conjoin(pushed[r], c)
		} else {
			residual = append(residual, c)
		}
	}
	return pushed, expr.Conjoin(residual...)
}

// conjunctOwner returns the index of the one relation a conjunct reads, or -1.
func conjunctOwner(c expr.Expr, rels []*vsql.TableRef) int {
	if expr.ReadsRow(c) {
		return -1
	}
	owner := -1
	for _, name := range c.Columns(nil) {
		r := relationNamed(rels, qualifierOf(name))
		if r < 0 || (owner >= 0 && r != owner) {
			return -1
		}
		owner = r
	}
	return owner
}

// relationNamed returns the index of the one relation whose display name is
// the lowercased qualifier q, or -1 when q is "" or names none or several.
func relationNamed(rels []*vsql.TableRef, q string) int {
	found := -1
	for r, tr := range rels {
		if q != "" && strings.ToLower(displayName(tr)) == q {
			if found >= 0 {
				return -1
			}
			found = r
		}
	}
	return found
}

// prune returns the indexes of the columns of schema that one of names may
// resolve to, with the schema of those columns, or nil and schema itself when
// that is every column. A column named c is matched as qual.c (as c when qual
// is "": the schema is a join output, already qualified) the way ColIndex
// matches a join output column: by its full name, or an unqualified name by
// the part after the last dot. Keeping every such candidate, in order, leaves
// ColIndex's answer for each name unchanged.
func prune(schema types.Schema, qual string, names []string) ([]int, types.Schema) {
	keep, out := make([]int, 0, len(schema.Cols)), types.Schema{}
	for i, c := range schema.Cols {
		full := c.Name
		if qual != "" {
			full = qual + "." + c.Name
		}
		bare := full[strings.LastIndexByte(full, '.')+1:]
		for _, n := range names {
			if strings.EqualFold(n, full) || (!strings.Contains(n, ".") && strings.EqualFold(n, bare)) {
				keep, out.Cols = append(keep, i), append(out.Cols, c)
				break
			}
		}
	}
	if len(keep) == len(schema.Cols) {
		return nil, schema
	}
	return keep, out
}

// joinShape resolves a join step's ON columns and builds its output schema:
// left columns then right columns, each named "relation.column" (the left
// side is qualified here at the first step only — lref is nil once the left
// input is itself a join result). Both sides are matched qualified, so a
// qualified ON name resolves only against the relation it names; an
// unqualified one matches by column name. The two names may be written
// either way around.
func joinShape(ls types.Schema, lref *vsql.TableRef, rs types.Schema, jc *vsql.JoinClause) (li, ri int, out types.Schema, err error) {
	if lref != nil {
		ls = qualified(ls, lref)
	}
	rs = qualified(rs, &jc.Right)
	li, ri = ls.ColIndex(jc.LeftCol), rs.ColIndex(jc.RightCol)
	if li < 0 || ri < 0 {
		li, ri = ls.ColIndex(jc.RightCol), rs.ColIndex(jc.LeftCol)
	}
	if li < 0 || ri < 0 {
		return 0, 0, out, fmt.Errorf("vertica: join columns %q/%q not found", jc.LeftCol, jc.RightCol)
	}
	out.Cols = append(slices.Clip(ls.Cols), rs.Cols...)
	return li, ri, out, nil
}

// qualified returns the schema with every column named "relation.column".
func qualified(s types.Schema, tr *vsql.TableRef) types.Schema {
	out := types.Schema{Cols: make([]types.Column, len(s.Cols))}
	for i, c := range s.Cols {
		out.Cols[i] = types.Column{Name: displayName(tr) + "." + c.Name, T: c.T}
	}
	return out
}

// joinStep runs one join node on vexec's hash join: the build side's carried
// columns leave dictionary-coded, and the probe side's are the probe batches
// themselves (a join to unique keys, probing the left input) or gathered by
// matched pairs. No row is boxed.
func joinStep(n *planNode, left, right []*storage.Batch) ([]*storage.Batch, error) {
	out, shared, err := vexec.HashJoin(left, right, vexec.JoinSpec{LeftKey: n.li, RightKey: n.ri, BuildLeft: n.buildLeft,
		LeftCols: n.lcols, RightCols: n.rcols, Schema: n.schema})
	n.shared = shared
	return out, err
}
