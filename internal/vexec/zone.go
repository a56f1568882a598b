package vexec

import (
	"math"

	"vsfabric/internal/expr"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

// zoneCheck is the prunable shape extracted from one conjunct: either a
// column/literal comparison or an IS [NOT] NULL test. A container whose zone
// map proves the check can never hold excludes every row in the container —
// because the checks come from conjuncts, any single impossible check prunes
// the whole container.
type zoneCheck struct {
	ci     int
	op     expr.CmpOp
	lit    types.Value
	isNull bool // IS NULL (negate=false) / IS NOT NULL (negate=true) instead of a comparison
	negate bool
}

// collectZoneChecks extracts prunable checks from a conjunct. It runs beside
// lowering: a conjunct may produce both a kernel and a zone check (the check
// skips whole containers, the kernel filters the survivors), and a residual
// conjunct of the right shape can still prune though it runs compiled.
func collectZoneChecks(e expr.Expr, schema types.Schema) (zoneCheck, bool) {
	switch n := e.(type) {
	case *expr.IsNull:
		col, ok := n.E.(*expr.Col)
		if !ok {
			return zoneCheck{}, false
		}
		ci := schema.ColIndex(col.Name)
		if ci < 0 {
			return zoneCheck{}, false
		}
		return zoneCheck{ci: ci, isNull: true, negate: n.Negate}, true
	case *expr.Cmp:
		ci, op, lit, ok := colCmpLit(n, schema)
		if !ok || lit.Null {
			return zoneCheck{}, false
		}
		if !sameCompareFamily(schema.Cols[ci].T, lit.T) {
			// Cross-family comparisons keep their odd semantics; min/max
			// bounds say nothing about them.
			return zoneCheck{}, false
		}
		return zoneCheck{ci: ci, op: op, lit: lit}, true
	}
	return zoneCheck{}, false
}

// sameCompareFamily reports whether types.Compare orders a and b by value
// (numeric promotion, string order, bool order) rather than falling into a
// cross-family comparison whose result min/max bounds cannot predict.
func sameCompareFamily(a, b types.Type) bool {
	num := func(t types.Type) bool { return t == types.Int64 || t == types.Float64 }
	switch {
	case num(a) && num(b):
		return true
	case a == types.Varchar && b == types.Varchar:
		return true
	case a == types.Bool && b == types.Bool:
		return true
	}
	return false
}

// HasZoneChecks reports whether the predicate extracted any prunable
// conjuncts (false means CanPrune never prunes).
func (p *Pred) HasZoneChecks() bool { return len(p.zones) > 0 }

// CanPrune reports whether a container's zone maps prove that no physical row
// can satisfy the predicate, so the scan may skip the container without
// building a selection vector. stats is indexed like the schema's columns, and
// each bound is of its column's type (storage refuses a container file whose
// zone map is not), so it orders against the check's literal by value. A NaN
// bound, which a FLOAT container file written before storage widened NaN to
// [-Inf, +Inf] may carry, prunes nothing.
func (p *Pred) CanPrune(stats []storage.ColStats, rowCount int) bool {
	if rowCount == 0 {
		return true
	}
	for _, z := range p.zones {
		if z.ci >= len(stats) {
			continue
		}
		st := stats[z.ci]
		if z.isNull {
			if !z.negate && st.NullCount == 0 {
				return true // IS NULL, but the container holds no NULLs
			}
			if z.negate && st.NullCount == rowCount {
				return true // IS NOT NULL, but every value is NULL
			}
			continue
		}
		if !st.HasMinMax {
			return true // every value NULL: col CMP lit is NULL for all rows
		}
		if isNaN(st.Min) || isNaN(st.Max) {
			continue
		}
		lo := types.Compare(z.lit, st.Min) // <0: lit below every value
		hi := types.Compare(z.lit, st.Max) // >0: lit above every value
		switch z.op {
		case expr.EQ:
			if lo < 0 || hi > 0 {
				return true
			}
		case expr.NE:
			// Only impossible when every value equals the literal.
			if lo == 0 && hi == 0 && types.Compare(st.Min, st.Max) == 0 {
				return true
			}
		case expr.LT:
			if lo <= 0 { // lit <= Min: no value < lit
				return true
			}
		case expr.LE:
			if lo < 0 {
				return true
			}
		case expr.GT:
			if hi >= 0 { // lit >= Max: no value > lit
				return true
			}
		case expr.GE:
			if hi > 0 {
				return true
			}
		}
	}
	return false
}

func isNaN(v types.Value) bool { return v.T == types.Float64 && math.IsNaN(v.F) }
