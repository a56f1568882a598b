// Package vexec runs expressions over columnar batches without boxing rows —
// the MonetDB/X100-style vectorized execution layer under the SQL engine. It
// holds the one production expression evaluator (CompileExpr: an expression
// compiled once per plan into a function from a batch to a vector) and, on
// top of it, WHERE-clause predicates: a predicate is split into conjuncts;
// each conjunct that matches a recognized shape (column CMP literal, IS [NOT]
// NULL, bare boolean column, HASH(segcols) CMP literal) is lowered to a tight
// loop over the column's dense vector. The other conjuncts run compiled, as a
// residual over the rows the kernels kept, so any predicate the evaluator
// accepts runs unchanged.
//
// Kernel semantics follow SQL three-valued logic exactly as a WHERE clause
// applies it: a conjunct keeps a row only when it evaluates to non-NULL true,
// so a conjunction of keep-if-true kernels equals EvalPredicate over the AND
// of the conjuncts.
package vexec

import (
	"slices"

	"vsfabric/internal/expr"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

// Kernel narrows a selection over one batch: it appends the rows of sel it
// keeps, in order, to out and returns the result. sel is read-only to it — it
// may be a scan's shared identity selection (storage.IdentitySel). out is the
// caller's: empty, or sel's own backing when the caller narrows a vector it
// allocated in place, which is safe because the k-th kept row is written only
// after the k-th row of sel is read.
type Kernel func(b *storage.Batch, sel, out []int32) []int32

// Pred is a compiled predicate: zero or more typed kernels, one ring range
// for its stored-hash conjuncts, and the compiled conjuncts no kernel answers.
// A Pred is immutable after Compile and safe for concurrent FilterBatch
// calls from parallel segment scans.
type Pred struct {
	kernels []Kernel
	// ring is what the HASH(segcols) CMP INTEGER conjuncts — HASH(segcols)
	// being the batch's stored hash — intersect to (the whole ring when there
	// are none), and inRing its kernel over the batch's Hashes: nil when they
	// admit every ring position or none (always true: dropped; never: a
	// selectNone kernel). Only a storage container's batch has a hash vector, so a
	// derived batch (join output, view, system table — Hashes == nil)
	// evaluates those conjuncts compiled instead.
	ring   vhash.Range
	inRing Kernel
	// conjuncts are, when inRing is set, the stored-hash conjuncts compiled
	// as one, then the residual (every conjunct that did not lower, compiled
	// as one AND).
	conjuncts []Vec
	// zones holds the prunable conjunct shapes (column CMP literal, IS [NOT]
	// NULL) tested against per-container zone maps by CanPrune.
	zones []zoneCheck
}

// NumKernels returns how many kernels the conjuncts compiled to: the typed
// ones plus the one range kernel.
func (p *Pred) NumKernels() int {
	if p.inRing != nil {
		return len(p.kernels) + 1
	}
	return len(p.kernels)
}

// Ring returns the ring positions the predicate's stored-hash conjuncts admit
// together: the whole ring when it has none. A scan visits only the segments
// it overlaps.
func (p *Pred) Ring() vhash.Range { return p.ring }

// ExcludesSpan reports whether the predicate's stored-hash conjuncts admit no
// row of a container whose hashes lie in span: the span is disjoint from Ring.
// A scan skips and counts such a container as pruned, as zone maps prune one.
// An empty span (a container of no rows) or a predicate without a range
// excludes nothing.
func (p *Pred) ExcludesSpan(span vhash.Range) bool {
	return p.inRing != nil && !span.Empty() && p.ring.Intersect(span).Empty()
}

// Compile lowers where against the schema. segIdx gives the schema indexes
// of the segmentation columns used to precompute batch hashes (HASH(...)
// conjuncts matching it intersect into one range kernel over the hash
// vector); pass nil when batch hashes are whole-row synthetic hashes. Whether
// that kernel runs is decided per batch, by whether it carries a hash vector
// at all. A nil where compiles to a pass-through predicate.
func Compile(where expr.Expr, schema types.Schema, segIdx []int) *Pred {
	p := &Pred{ring: vhash.Range{Lo: 0, Hi: vhash.RingSize}}
	if where == nil {
		return p
	}
	var stored, residual []expr.Expr
	for _, c := range SplitConjuncts(where, nil) {
		if z, ok := collectZoneChecks(c, schema); ok {
			p.zones = append(p.zones, z)
		}
		if r, ok := HashRange(c, schema, segIdx); ok {
			p.ring, stored = p.ring.Intersect(r), append(stored, c)
			continue
		}
		k, ok := lower(c, schema)
		switch {
		case !ok:
			residual = append(residual, c)
		case k != nil: // nil = always-true conjunct, dropped
			p.kernels = append(p.kernels, k)
		}
	}
	switch {
	case p.ring.Width() == vhash.RingSize:
		// No stored-hash conjunct, or every ring position: always true.
	case p.ring.Empty():
		p.kernels = append(p.kernels, selectNone)
	default:
		vec, _ := CompileExpr(expr.Conjoin(stored...), schema)
		p.inRing, p.conjuncts = rangeKernel(p.ring), append(p.conjuncts, vec)
	}
	if residual != nil {
		vec, _ := CompileExpr(expr.Conjoin(residual...), schema)
		p.conjuncts = append(p.conjuncts, vec)
	}
	return p
}

// FilterStats counts how filtering work split between compiled kernels and
// the rows evaluated a row at a time, accumulated across FilterBatchStats
// calls. PROFILE prints a scan's: KernelRows and ResidualRows as columns, the
// other two in its detail.
type FilterStats struct {
	// KernelRows is the number of selected rows the kernels examined: the
	// rows reaching the first kernel that ran (0 when none did).
	KernelRows int64
	// RangeRows is the number of rows the range kernel examined: the typed
	// kernels' survivors, none of a batch whose hash span decided it whole.
	RangeRows int64
	// ResidualRows is the number of rows that survived the kernels and went
	// through the compiled conjuncts' per-row value loops (0 when fully
	// lowered).
	ResidualRows int64
	// IdentityRows is the number of rows that reached the filter as whole
	// containers: the shared identity selection (storage.IsIdentity) over
	// every row of the batch. A run of a container's rows filtered on its
	// own, first run included, is not whole.
	IdentityRows int64
}

// Add accumulates o into fs.
func (fs *FilterStats) Add(o FilterStats) {
	fs.KernelRows += o.KernelRows
	fs.RangeRows += o.RangeRows
	fs.ResidualRows += o.ResidualRows
	fs.IdentityRows += o.IdentityRows
}

// FilterBatch narrows b.Sel: the hash span, the typed kernels, the range
// kernel over their survivors, then the compiled conjuncts over what is left.
// It never writes through b.Sel, which may be shared.
func (p *Pred) FilterBatch(b *storage.Batch) error { return p.FilterBatchStats(b, nil) }

// FilterBatchStats is FilterBatch with optional work accounting for query
// profiling; fs may be nil.
//
// The range kernel runs last of the kernels because a batch whose rows are
// all inside or all outside the range is decided whole by its hash span, and
// on any other batch a V2S partition's pushed-down filter keeps a sliver:
// the typed kernels read a whole container down its vectors, and only their
// survivors pay the per-row hash test.
func (p *Pred) FilterBatchStats(b *storage.Batch, fs *FilterStats) error {
	stored := b.Hashes != nil
	testRing := p.inRing != nil && stored
	if testRing && !b.HashSpan.Empty() {
		switch {
		case p.ExcludesSpan(b.HashSpan):
			b.Sel = nil // no row's hash is in the range
			return nil
		case p.ring.Covers(b.HashSpan):
			testRing = false // every row's is
		}
	}
	f := narrowing{b: b, sel: b.Sel}
	if fs != nil {
		if storage.IsIdentity(f.sel) && len(b.Cols) > 0 && len(f.sel) == b.Cols[0].Len() {
			fs.IdentityRows += int64(len(f.sel))
		}
		if len(p.kernels) > 0 || testRing {
			fs.KernelRows += int64(len(f.sel))
		}
	}
	f.apply(p.kernels)
	rest := p.conjuncts
	if p.inRing != nil && stored {
		if testRing && len(f.sel) > 0 {
			if fs != nil {
				fs.RangeRows += int64(len(f.sel))
			}
			f.sel = p.inRing(b, f.sel, f.out())
		}
		rest = rest[1:]
	}
	if fs != nil && len(rest) > 0 {
		fs.ResidualRows += int64(len(f.sel))
	}
	for _, c := range rest {
		if len(f.sel) == 0 {
			break
		}
		var err error
		if f.sel, err = keepTrue(c, b, f.sel, f.out()); err != nil {
			return err
		}
	}
	b.Sel = f.sel
	return nil
}

// narrowing is one FilterBatch call's selection. The first narrowing writes
// into a vector of the call's own and every later one narrows that vector in
// place: a batch gets at most one new selection vector. It is sized to the
// selection it narrows, except when that is the shared identity or a run of
// it — a whole container or a LIMIT-pushed scan's run of one, which a WHERE
// mostly narrows to a sliver — where it grows by append instead of being
// zeroed at the container's size.
type narrowing struct {
	b     *storage.Batch
	sel   []int32
	owned bool
}

// out returns the vector the next narrowing appends to.
func (f *narrowing) out() []int32 {
	if f.owned {
		return f.sel[:0]
	}
	f.owned = true
	if _, ok := storage.IdentityRun(f.sel); ok {
		return nil
	}
	return make([]int32, 0, len(f.sel))
}

func (f *narrowing) apply(kernels []Kernel) {
	for _, k := range kernels {
		if len(f.sel) == 0 {
			return
		}
		f.sel = k(f.b, f.sel, f.out())
	}
}

// SplitConjuncts appends the operands of e's top-level ANDs to dst, in order.
func SplitConjuncts(e expr.Expr, dst []expr.Expr) []expr.Expr {
	if a, ok := e.(*expr.And); ok {
		return SplitConjuncts(a.R, SplitConjuncts(a.L, dst))
	}
	return append(dst, e)
}

// lower compiles one conjunct. It returns (nil, true) for conjuncts that are
// always true (droppable), (kernel, true) on success, and (_, false) when
// the conjunct must run compiled as a residual.
func lower(e expr.Expr, schema types.Schema) (Kernel, bool) {
	switch n := e.(type) {
	case *expr.Lit:
		if n.V.Null || !n.V.AsBool() {
			return selectNone, true
		}
		return nil, true
	case *expr.Col:
		ci := schema.ColIndex(n.Name)
		if ci < 0 || schema.Cols[ci].T != types.Bool {
			return nil, false
		}
		return boolTrueKernel(ci, boxedKernel(e, schema)), true
	case *expr.IsNull:
		col, ok := n.E.(*expr.Col)
		if !ok {
			return nil, false
		}
		ci := schema.ColIndex(col.Name)
		if ci < 0 {
			return nil, false
		}
		return nullKernel(ci, n.Negate), true
	case *expr.Cmp:
		return lowerCmp(n, schema)
	}
	return nil, false
}

func lowerCmp(c *expr.Cmp, schema types.Schema) (Kernel, bool) {
	ci, op, lit, ok := colCmpLit(c, schema)
	if !ok {
		return nil, false
	}
	if lit.Null {
		// CMP with NULL is NULL for every row: nothing survives.
		return selectNone, true
	}
	colT, litT, boxed := schema.Cols[ci].T, lit.T, boxedKernel(c, schema)
	switch {
	case colT == types.Int64 && litT == types.Int64:
		return intCmpKernel(ci, op, lit.I, boxed), true
	case colT == types.Int64 && litT == types.Float64,
		colT == types.Float64 && (litT == types.Int64 || litT == types.Float64):
		// Mixed numeric comparisons promote to float64, exactly as
		// types.Compare does.
		return floatCmpKernel(ci, op, lit.AsFloat(), boxed), true
	case colT == types.Varchar && litT == types.Varchar:
		return stringCmpKernel(ci, op, lit.S, boxed), true
	case colT == types.Bool && litT == types.Bool:
		return boolCmpKernel(ci, op, lit.B, boxed), true
	}
	// Cross-family comparisons (e.g. int column vs varchar literal) keep their
	// exact — if odd — semantics by running as residual.
	return nil, false
}

// colCmpLit matches a column CMP literal comparison, written either way
// round: the column's schema index, the operator as the column sees it, and
// the literal.
func colCmpLit(c *expr.Cmp, schema types.Schema) (ci int, op expr.CmpOp, lit types.Value, ok bool) {
	col, isCol := c.L.(*expr.Col)
	l, isLit := c.R.(*expr.Lit)
	op = c.Op
	if !isCol || !isLit {
		l, isLit = c.L.(*expr.Lit)
		col, isCol = c.R.(*expr.Col)
		op = flipOp(op)
	}
	if !isCol || !isLit {
		return -1, op, types.Value{}, false
	}
	ci = schema.ColIndex(col.Name)
	return ci, op, l.V, ci >= 0
}

func flipOp(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.LT:
		return expr.GT
	case expr.LE:
		return expr.GE
	case expr.GT:
		return expr.LT
	case expr.GE:
		return expr.LE
	default: // EQ, NE are symmetric
		return op
	}
}

// boxedKernel is what a kernel runs over a batch whose vector is a DictColumn
// (a join's build side), the one form no kernel loop reads: the conjunct
// compiled, which a column and a literal cannot fail. Only such a batch
// compiles it, so planning pays nothing for the path.
func boxedKernel(conjunct expr.Expr, schema types.Schema) Kernel {
	return func(b *storage.Batch, sel, out []int32) []int32 {
		vec, _ := CompileExpr(conjunct, schema)
		kept, _ := keepTrue(vec, b, sel, out)
		return kept
	}
}

// hashMatchesSeg reports whether HASH(...) computes the batch's precomputed
// row hash: HASH(*) when hashes are whole-row synthetic (segIdx empty), or
// HASH(c1..ck) naming the segmentation columns in order.
func hashMatchesSeg(h *expr.HashFn, schema types.Schema, segIdx []int) bool {
	if len(h.Args) != len(segIdx) {
		return false
	}
	for i, a := range h.Args {
		col, ok := a.(*expr.Col)
		if !ok || schema.ColIndex(col.Name) != segIdx[i] {
			return false
		}
	}
	return true
}

// HashRange returns the ring positions a HASH(segcols) CMP INTEGER conjunct
// admits, HASH(segcols) being the stored hash hashMatchesSeg names: all of them
// when the bound lies below the ring, none when above it or NULL. ok is false
// for any other conjunct, <> included.
func HashRange(e expr.Expr, schema types.Schema, segIdx []int) (r vhash.Range, ok bool) {
	c, isCmp := e.(*expr.Cmp)
	if !isCmp || c.Op == expr.NE {
		return r, false
	}
	h, isHash := c.L.(*expr.HashFn)
	lit, isLit := c.R.(*expr.Lit)
	if !isHash || !isLit || !hashMatchesSeg(h, schema, segIdx) || !lit.V.Null && lit.V.T != types.Int64 {
		return r, false
	}
	if lit.V.Null {
		return r, true
	}
	ring := int64(vhash.RingSize)
	n, lo, hi := min(max(lit.V.I, -1), ring), int64(0), ring
	switch c.Op {
	case expr.GE:
		lo = n
	case expr.GT:
		lo = n + 1
	case expr.LT:
		hi = n
	case expr.LE:
		hi = n + 1
	case expr.EQ:
		lo, hi = n, n+1
	}
	return vhash.Range{Lo: uint64(min(max(lo, 0), ring)), Hi: uint64(min(max(hi, 0), ring))}, true
}

// rangeKernel keeps the rows whose stored hash lies in r. Its loop does not
// branch on the hash: each row is written to the next free slot, which
// advances only when the hash is in range, because the rows of a container a
// partition splits are in range or not at random, which no branch predictor
// guesses.
func rangeKernel(r vhash.Range) Kernel {
	lo, w := int64(r.Lo), int64(r.Width())
	return func(b *storage.Batch, sel, out []int32) []int32 {
		out = slices.Grow(out, len(sel))
		n, buf := len(out), out[:len(out)+len(sel)]
		for _, i := range sel {
			buf[n] = i
			// 1 when 0 <= x < w, from two sign bits. Written out here: a
			// helper is not inlined into this closure.
			x := int64(b.Hashes[i]) - lo
			n += int((x-w)>>63&^(x>>63)) & 1
		}
		return buf[:n]
	}
}

// selectNone drops every row (a conjunct that can never be true). It returns
// nil, not sel[:0]: the caller owns what a kernel returns, and sel may be
// shared.
func selectNone(*storage.Batch, []int32, []int32) []int32 { return nil }

func nullKernel(ci int, negate bool) Kernel {
	return func(b *storage.Batch, sel, out []int32) []int32 {
		col := b.Cols[ci]
		for _, i := range sel {
			if col.IsNull(int(i)) != negate {
				out = append(out, i)
			}
		}
		return out
	}
}

func boolTrueKernel(ci int, boxed Kernel) Kernel {
	return func(b *storage.Batch, sel, out []int32) []int32 {
		col, ok := b.Cols[ci].(*storage.BoolColumn)
		if !ok {
			return boxed(b, sel, out)
		}
		for _, i := range sel {
			if (col.Nulls == nil || !col.Nulls[i]) && col.Vals[i] {
				out = append(out, i)
			}
		}
		return out
	}
}

func intCmpKernel(ci int, op expr.CmpOp, lit int64, boxed Kernel) Kernel {
	return func(b *storage.Batch, sel, out []int32) []int32 {
		switch col := b.Cols[ci].(type) {
		case *storage.Int64Column:
			if col.Nulls != nil {
				for _, i := range sel {
					if !col.Nulls[i] && op.Holds(compare3(col.Vals[i], lit)) {
						out = append(out, i)
					}
				}
				return out
			}
			if lo, ok := storage.IdentityRun(sel); ok {
				from := len(out)
				out = intCmpDense(col.Vals[lo:lo+len(sel)], op, lit, out)
				// Survivors are numbered from the run's first row. Shifting
				// them here keeps lo out of the hot loop, where it cost a
				// register and half the loop's speed.
				for k := from; lo > 0 && k < len(out); k++ {
					out[k] += int32(lo)
				}
				return out
			}
			return intCmpSel(col.Vals, sel, op, lit, out)
		default:
			return boxed(b, sel, out)
		}
	}
}

// intCmpDense and intCmpSel are the hot null-free INTEGER loops: no null
// checks, no branching beyond the compare. intCmpDense serves a run of the
// identity selection, vals being the run's rows, and appends k for vals[k]:
// it reads the vector straight through, where intCmpSel loads each row's
// index from sel first.
func intCmpDense(vals []int64, op expr.CmpOp, lit int64, out []int32) []int32 {
	switch op {
	case expr.EQ:
		for i, v := range vals {
			if v == lit {
				out = append(out, int32(i))
			}
		}
	case expr.NE:
		for i, v := range vals {
			if v != lit {
				out = append(out, int32(i))
			}
		}
	case expr.LT:
		for i, v := range vals {
			if v < lit {
				out = append(out, int32(i))
			}
		}
	case expr.LE:
		for i, v := range vals {
			if v <= lit {
				out = append(out, int32(i))
			}
		}
	case expr.GT:
		for i, v := range vals {
			if v > lit {
				out = append(out, int32(i))
			}
		}
	case expr.GE:
		for i, v := range vals {
			if v >= lit {
				out = append(out, int32(i))
			}
		}
	}
	return out
}

func intCmpSel(vals []int64, sel []int32, op expr.CmpOp, lit int64, out []int32) []int32 {
	switch op {
	case expr.EQ:
		for _, i := range sel {
			if vals[i] == lit {
				out = append(out, i)
			}
		}
	case expr.NE:
		for _, i := range sel {
			if vals[i] != lit {
				out = append(out, i)
			}
		}
	case expr.LT:
		for _, i := range sel {
			if vals[i] < lit {
				out = append(out, i)
			}
		}
	case expr.LE:
		for _, i := range sel {
			if vals[i] <= lit {
				out = append(out, i)
			}
		}
	case expr.GT:
		for _, i := range sel {
			if vals[i] > lit {
				out = append(out, i)
			}
		}
	case expr.GE:
		for _, i := range sel {
			if vals[i] >= lit {
				out = append(out, i)
			}
		}
	}
	return out
}

// compare3 is a three-way comparison that, like types.Compare, calls NaN
// equal to everything.
func compare3[T int64 | float64 | string | byte](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func floatCmpKernel(ci int, op expr.CmpOp, lit float64, boxed Kernel) Kernel {
	return func(b *storage.Batch, sel, out []int32) []int32 {
		switch col := b.Cols[ci].(type) {
		case *storage.Float64Column:
			for _, i := range sel {
				if col.Nulls != nil && col.Nulls[i] {
					continue
				}
				if op.Holds(compare3(col.Vals[i], lit)) {
					out = append(out, i)
				}
			}
			return out
		case *storage.Int64Column:
			for _, i := range sel {
				if col.Nulls != nil && col.Nulls[i] {
					continue
				}
				if op.Holds(compare3(float64(col.Vals[i]), lit)) {
					out = append(out, i)
				}
			}
			return out
		default:
			return boxed(b, sel, out)
		}
	}
}

func stringCmpKernel(ci int, op expr.CmpOp, lit string, boxed Kernel) Kernel {
	return func(b *storage.Batch, sel, out []int32) []int32 {
		col, ok := b.Cols[ci].(*storage.StringColumn)
		if !ok {
			return boxed(b, sel, out)
		}
		for _, i := range sel {
			if (col.Nulls == nil || !col.Nulls[i]) && op.Holds(compare3(col.Vals[i], lit)) {
				out = append(out, i)
			}
		}
		return out
	}
}

func boolCmpKernel(ci int, op expr.CmpOp, lit bool, boxed Kernel) Kernel {
	return func(b *storage.Batch, sel, out []int32) []int32 {
		col, ok := b.Cols[ci].(*storage.BoolColumn)
		if !ok {
			return boxed(b, sel, out)
		}
		for _, i := range sel {
			// false < true, per types.Compare.
			if (col.Nulls == nil || !col.Nulls[i]) && op.Holds(compare3(b2b(col.Vals[i]), b2b(lit))) {
				out = append(out, i)
			}
		}
		return out
	}
}
