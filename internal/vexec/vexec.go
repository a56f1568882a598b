// Package vexec compiles WHERE-clause predicates into typed kernels that run
// over columnar batches without boxing values through types.Value — the
// MonetDB/X100-style vectorized execution layer under the SQL engine's scan
// path. A predicate is split into conjuncts; each conjunct that matches a
// recognized shape (column CMP literal, IS [NOT] NULL, bare boolean column,
// HASH(segcols) CMP literal) is lowered to a tight loop over the concrete
// column vector, with a fast path that evaluates RLE-compressed int columns
// run-by-run without decoding. Conjuncts that don't lower fall back to the
// interpreted expr.EvalPredicate as a residual, so any predicate the
// interpreter accepts runs unchanged — just slower.
//
// Kernel semantics follow SQL three-valued logic exactly as the interpreter
// applies it to a WHERE clause: a conjunct keeps a row only when it
// evaluates to non-NULL true, so a conjunction of keep-if-true kernels
// equals EvalPredicate over the AND of the conjuncts.
package vexec

import (
	"vsfabric/internal/expr"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

// Kernel narrows a selection vector over one batch: it writes the surviving
// subset of sel (in order) into sel's backing array and returns it.
type Kernel func(b *storage.Batch, sel []int32) []int32

// Pred is a compiled predicate: zero or more typed kernels plus an optional
// interpreted residual conjunct.
// A Pred is immutable after Compile and safe for concurrent FilterBatch
// calls from parallel segment scans.
type Pred struct {
	kernels  []Kernel
	residual expr.Expr
	// hashKernels are the HASH(...) CMP literal conjuncts, which read the
	// batch's stored hash vector. Only a storage container's batch has one: on
	// a derived batch (join output, view, system table — Hashes == nil) the
	// same conjuncts run interpreted, as part of derived.
	hashKernels []Kernel
	derived     expr.Expr // the hash conjuncts AND residual
	schema      types.Schema
	// zones holds the prunable conjunct shapes (column CMP literal, IS [NOT]
	// NULL) tested against per-container zone maps by CanPrune.
	zones []zoneCheck
}

// NumKernels returns how many conjuncts compiled to typed kernels.
func (p *Pred) NumKernels() int { return len(p.kernels) + len(p.hashKernels) }

// Residual returns the interpreted remainder (nil when fully compiled).
func (p *Pred) Residual() expr.Expr { return p.residual }

// Compile lowers where against the schema. segIdx gives the schema indexes
// of the segmentation columns used to precompute batch hashes (HASH(...)
// conjuncts matching it lower to hash-vector kernels); pass nil when batch
// hashes are whole-row synthetic hashes. Whether those kernels run is decided
// per batch, by whether it carries a hash vector at all. A nil where compiles
// to a pass-through predicate.
func Compile(where expr.Expr, schema types.Schema, segIdx []int) *Pred {
	p := &Pred{schema: schema}
	if where == nil {
		return p
	}
	var residual, hashed []expr.Expr
	for _, c := range SplitConjuncts(where, nil) {
		if z, ok := collectZoneChecks(c, schema); ok {
			p.zones = append(p.zones, z)
		}
		if k, ok := lowerHashCmp(c, schema, segIdx); ok {
			if k != nil {
				p.hashKernels = append(p.hashKernels, k)
			}
			hashed = append(hashed, c)
			continue
		}
		if k, ok := lower(c, schema); ok {
			if k != nil { // nil = always-true conjunct, dropped
				p.kernels = append(p.kernels, k)
			}
			continue
		}
		residual = append(residual, c)
	}
	p.residual = expr.Conjoin(residual...)
	p.derived = expr.Conjoin(append(hashed, p.residual)...)
	return p
}

// FilterStats counts how filtering work split between compiled kernels and
// the interpreted residual, accumulated across FilterBatchStats calls.
type FilterStats struct {
	// KernelRows is the number of selected rows the typed kernels examined
	// (0 when the predicate compiled to no kernels).
	KernelRows int64
	// ResidualRows is the number of rows that survived the kernels and were
	// evaluated by the interpreted residual (0 when fully compiled).
	ResidualRows int64
}

// FilterBatch narrows b.Sel in place: kernels first, then the interpreted
// residual over materialized rows of the survivors.
func (p *Pred) FilterBatch(b *storage.Batch) error { return p.FilterBatchStats(b, nil) }

// FilterBatchStats is FilterBatch with optional work accounting for query
// profiling; fs may be nil.
func (p *Pred) FilterBatchStats(b *storage.Batch, fs *FilterStats) error {
	sel := b.Sel
	if fs != nil && p.NumKernels() > 0 {
		fs.KernelRows += int64(len(sel))
	}
	sel = applyKernels(p.kernels, b, sel)
	residual := p.derived
	if b.Hashes != nil {
		sel, residual = applyKernels(p.hashKernels, b, sel), p.residual
	}
	if residual != nil && len(sel) > 0 {
		if fs != nil {
			fs.ResidualRows += int64(len(sel))
		}
		out := sel[:0]
		var scratch types.Row // reused across rows within this batch
		for _, i := range sel {
			scratch = b.Row(int(i), scratch)
			ok, err := expr.EvalPredicate(residual, scratch, &b.Schema)
			if err != nil {
				return err
			}
			if ok {
				out = append(out, i)
			}
		}
		sel = out
	}
	b.Sel = sel
	return nil
}

func applyKernels(kernels []Kernel, b *storage.Batch, sel []int32) []int32 {
	for _, k := range kernels {
		if len(sel) == 0 {
			break
		}
		sel = k(b, sel)
	}
	return sel
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
// the conjunct must run interpreted.
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
		return boolTrueKernel(ci), true
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
	op := c.Op
	col, okL := c.L.(*expr.Col)
	lit, okR := c.R.(*expr.Lit)
	if !okL || !okR {
		// literal CMP column: flip the operands.
		lit2, okL2 := c.L.(*expr.Lit)
		col2, okR2 := c.R.(*expr.Col)
		if !okL2 || !okR2 {
			return nil, false
		}
		col, lit, op = col2, lit2, flipOp(op)
	}
	ci := schema.ColIndex(col.Name)
	if ci < 0 {
		return nil, false
	}
	if lit.V.Null {
		// CMP with NULL is NULL for every row: nothing survives.
		return selectNone, true
	}
	colT, litT := schema.Cols[ci].T, lit.V.T
	switch {
	case colT == types.Int64 && litT == types.Int64:
		return intCmpKernel(ci, op, lit.V.I), true
	case colT == types.Int64 && litT == types.Float64,
		colT == types.Float64 && (litT == types.Int64 || litT == types.Float64):
		// Mixed numeric comparisons promote to float64, exactly as
		// types.Compare does.
		return floatCmpKernel(ci, op, lit.V.AsFloat()), true
	case colT == types.Varchar && litT == types.Varchar:
		return stringCmpKernel(ci, op, lit.V.S), true
	case colT == types.Bool && litT == types.Bool:
		return boolCmpKernel(ci, op, lit.V.B), true
	}
	// Cross-family comparisons (e.g. int column vs varchar literal) keep the
	// interpreter's exact — if odd — semantics by running as residual.
	return nil, false
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

// HashMatchesSeg reports whether HASH(...) computes the batch's precomputed
// row hash: HASH(*) when hashes are whole-row synthetic (segIdx empty), or
// HASH(c1..ck) naming the segmentation columns in order.
func HashMatchesSeg(h *expr.HashFn, schema types.Schema, segIdx []int) bool {
	if len(h.Args) == 0 {
		return len(segIdx) == 0
	}
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

// lowerHashCmp compiles a HASH(segcols) CMP literal conjunct to a kernel over
// the batch's precomputed hash vector (nil when always true); ok is false for
// any other conjunct.
func lowerHashCmp(e expr.Expr, schema types.Schema, segIdx []int) (Kernel, bool) {
	c, isCmp := e.(*expr.Cmp)
	if !isCmp {
		return nil, false
	}
	h, isHash := c.L.(*expr.HashFn)
	lit, isLit := c.R.(*expr.Lit)
	if !isHash || !isLit || !HashMatchesSeg(h, schema, segIdx) {
		return nil, false
	}
	if lit.V.Null {
		return selectNone, true
	}
	n := lit.V.AsInt()
	// Hash values are uint32 widened to int64, so they are always >= 0 and
	// <= MaxUint32; bounds outside that range collapse to always/never.
	switch c.Op {
	case expr.GE, expr.GT:
		if n < 0 {
			return nil, true // always true
		}
	case expr.LT, expr.LE:
		if n < 0 {
			return selectNone, true
		}
	case expr.EQ:
		if n < 0 || n > int64(^uint32(0)) {
			return selectNone, true
		}
	default:
		return nil, false // NE stays interpreted; it never prunes usefully
	}
	return hashCmpKernel(c.Op, uint64(n)), true
}

// selectNone drops every row (a conjunct that can never be true).
func selectNone(_ *storage.Batch, sel []int32) []int32 { return sel[:0] }

func hashCmpKernel(op expr.CmpOp, n uint64) Kernel {
	return func(b *storage.Batch, sel []int32) []int32 {
		out := sel[:0]
		for _, i := range sel {
			h := uint64(b.Hashes[i])
			var keep bool
			switch op {
			case expr.GE:
				keep = h >= n
			case expr.GT:
				keep = h > n
			case expr.LT:
				keep = h < n
			case expr.LE:
				keep = h <= n
			case expr.EQ:
				keep = h == n
			}
			if keep {
				out = append(out, i)
			}
		}
		return out
	}
}

func nullKernel(ci int, negate bool) Kernel {
	return func(b *storage.Batch, sel []int32) []int32 {
		col := b.Cols[ci]
		out := sel[:0]
		for _, i := range sel {
			if col.IsNull(int(i)) != negate {
				out = append(out, i)
			}
		}
		return out
	}
}

func boolTrueKernel(ci int) Kernel {
	return func(b *storage.Batch, sel []int32) []int32 {
		col, ok := b.Cols[ci].(*storage.BoolColumn)
		if !ok {
			return fallbackTruth(b, sel, ci)
		}
		out := sel[:0]
		for _, i := range sel {
			if (col.Nulls == nil || !col.Nulls[i]) && col.Vals[i] {
				out = append(out, i)
			}
		}
		return out
	}
}

// fallbackTruth handles a type-mismatched batch column (possible only if a
// table's stored column type drifts from its schema) via boxed values.
func fallbackTruth(b *storage.Batch, sel []int32, ci int) []int32 {
	col := b.Cols[ci]
	out := sel[:0]
	for _, i := range sel {
		v := col.Get(int(i))
		if !v.Null && v.AsBool() {
			out = append(out, i)
		}
	}
	return out
}

// cmpKeep converts a three-way comparison result into keep/drop under op.
func cmpKeep(op expr.CmpOp, n int) bool {
	switch op {
	case expr.EQ:
		return n == 0
	case expr.NE:
		return n != 0
	case expr.LT:
		return n < 0
	case expr.LE:
		return n <= 0
	case expr.GT:
		return n > 0
	case expr.GE:
		return n >= 0
	}
	return false
}

func intCmpKernel(ci int, op expr.CmpOp, lit int64) Kernel {
	return func(b *storage.Batch, sel []int32) []int32 {
		switch col := b.Cols[ci].(type) {
		case *storage.Int64RLEColumn:
			return intCmpRLE(col, sel, op, lit)
		case *storage.Int64Column:
			out := sel[:0]
			if col.Nulls == nil {
				// Hot loop: no null checks, no branching beyond the compare.
				switch op {
				case expr.EQ:
					for _, i := range sel {
						if col.Vals[i] == lit {
							out = append(out, i)
						}
					}
				case expr.NE:
					for _, i := range sel {
						if col.Vals[i] != lit {
							out = append(out, i)
						}
					}
				case expr.LT:
					for _, i := range sel {
						if col.Vals[i] < lit {
							out = append(out, i)
						}
					}
				case expr.LE:
					for _, i := range sel {
						if col.Vals[i] <= lit {
							out = append(out, i)
						}
					}
				case expr.GT:
					for _, i := range sel {
						if col.Vals[i] > lit {
							out = append(out, i)
						}
					}
				case expr.GE:
					for _, i := range sel {
						if col.Vals[i] >= lit {
							out = append(out, i)
						}
					}
				}
				return out
			}
			for _, i := range sel {
				if col.Nulls[i] {
					continue
				}
				v := col.Vals[i]
				if cmpKeep(op, compareInt(v, lit)) {
					out = append(out, i)
				}
			}
			return out
		default:
			return fallbackCmp(b, sel, ci, op, types.IntValue(lit))
		}
	}
}

// intCmpRLE evaluates the comparison once per RLE run and filters the
// selection by run membership — never touching per-row values. sel is
// ascending, so a single forward walk over the runs suffices.
func intCmpRLE(col *storage.Int64RLEColumn, sel []int32, op expr.CmpOp, lit int64) []int32 {
	out := sel[:0]
	run := 0
	match := false
	end := int32(-1)
	for _, i := range sel {
		if i >= end {
			for run < len(col.RunEnds) && i >= col.RunEnds[run] {
				run++
			}
			end = col.RunEnds[run]
			match = cmpKeep(op, compareInt(col.RunVals[run], lit))
		}
		if match {
			out = append(out, i)
		}
	}
	return out
}

func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func floatCmpKernel(ci int, op expr.CmpOp, lit float64) Kernel {
	return func(b *storage.Batch, sel []int32) []int32 {
		out := sel[:0]
		switch col := b.Cols[ci].(type) {
		case *storage.Float64Column:
			for _, i := range sel {
				if col.Nulls != nil && col.Nulls[i] {
					continue
				}
				if cmpKeep(op, compareFloat(col.Vals[i], lit)) {
					out = append(out, i)
				}
			}
			return out
		case *storage.Int64Column:
			for _, i := range sel {
				if col.Nulls != nil && col.Nulls[i] {
					continue
				}
				if cmpKeep(op, compareFloat(float64(col.Vals[i]), lit)) {
					out = append(out, i)
				}
			}
			return out
		case *storage.Int64RLEColumn:
			run := 0
			match := false
			end := int32(-1)
			for _, i := range sel {
				if i >= end {
					for run < len(col.RunEnds) && i >= col.RunEnds[run] {
						run++
					}
					end = col.RunEnds[run]
					match = cmpKeep(op, compareFloat(float64(col.RunVals[run]), lit))
				}
				if match {
					out = append(out, i)
				}
			}
			return out
		default:
			return fallbackCmp(b, sel, ci, op, types.FloatValue(lit))
		}
	}
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func stringCmpKernel(ci int, op expr.CmpOp, lit string) Kernel {
	return func(b *storage.Batch, sel []int32) []int32 {
		col, ok := b.Cols[ci].(*storage.StringColumn)
		if !ok {
			return fallbackCmp(b, sel, ci, op, types.StringValue(lit))
		}
		out := sel[:0]
		for _, i := range sel {
			if col.Nulls != nil && col.Nulls[i] {
				continue
			}
			v := col.Vals[i]
			var n int
			switch {
			case v < lit:
				n = -1
			case v > lit:
				n = 1
			}
			if cmpKeep(op, n) {
				out = append(out, i)
			}
		}
		return out
	}
}

func boolCmpKernel(ci int, op expr.CmpOp, lit bool) Kernel {
	return func(b *storage.Batch, sel []int32) []int32 {
		col, ok := b.Cols[ci].(*storage.BoolColumn)
		if !ok {
			return fallbackCmp(b, sel, ci, op, types.BoolValue(lit))
		}
		out := sel[:0]
		for _, i := range sel {
			if col.Nulls != nil && col.Nulls[i] {
				continue
			}
			// false < true, per types.Compare.
			var n int
			v := col.Vals[i]
			switch {
			case v == lit:
				n = 0
			case lit:
				n = -1
			default:
				n = 1
			}
			if cmpKeep(op, n) {
				out = append(out, i)
			}
		}
		return out
	}
}

// fallbackCmp compares via boxed values when the batch column's concrete
// type doesn't match the schema-declared type the kernel was compiled for.
func fallbackCmp(b *storage.Batch, sel []int32, ci int, op expr.CmpOp, lit types.Value) []int32 {
	col := b.Cols[ci]
	out := sel[:0]
	for _, i := range sel {
		v := col.Get(int(i))
		if v.Null {
			continue
		}
		if cmpKeep(op, types.Compare(v, lit)) {
			out = append(out, i)
		}
	}
	return out
}
