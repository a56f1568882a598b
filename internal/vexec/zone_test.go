package vexec

import (
	"math"
	"testing"

	"vsfabric/internal/expr"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

func intStats(min, max int64, nulls int) storage.ColStats {
	return storage.ColStats{
		NullCount: nulls, HasMinMax: true,
		Min: types.IntValue(min), Max: types.IntValue(max),
	}
}

// statsFor places st at the x column of intSchema's 4-column layout.
func statsFor(st storage.ColStats) []storage.ColStats {
	return []storage.ColStats{st, {}, {}, {}}
}

func TestCanPruneRanges(t *testing.T) {
	schema := intSchema()
	cases := []struct {
		where expr.Expr
		stats storage.ColStats
		prune bool
	}{
		{cmp(expr.GT, col("x"), lit(i64(10))), intStats(1, 5, 0), true},
		{cmp(expr.GT, col("x"), lit(i64(10))), intStats(1, 20, 0), false},
		{cmp(expr.GT, col("x"), lit(i64(10))), intStats(1, 10, 0), true}, // lit == max: no value > 10
		{cmp(expr.GE, col("x"), lit(i64(10))), intStats(1, 10, 0), false},
		{cmp(expr.LT, col("x"), lit(i64(1))), intStats(1, 5, 0), true},
		{cmp(expr.LE, col("x"), lit(i64(1))), intStats(1, 5, 0), false},
		{cmp(expr.EQ, col("x"), lit(i64(7))), intStats(1, 5, 0), true},
		{cmp(expr.EQ, col("x"), lit(i64(4))), intStats(1, 5, 0), false},
		{cmp(expr.NE, col("x"), lit(i64(4))), intStats(4, 4, 0), true}, // every value is 4
		{cmp(expr.NE, col("x"), lit(i64(4))), intStats(4, 5, 0), false},
		// Float literal against int zone map orders by value.
		{cmp(expr.GT, col("x"), lit(f64(10.5))), intStats(1, 5, 0), true},
	}
	for _, tc := range cases {
		p := Compile(tc.where, schema, nil)
		if !p.HasZoneChecks() {
			t.Fatalf("%s: no zone check extracted", tc.where.SQL())
		}
		if got := p.CanPrune(statsFor(tc.stats), 100); got != tc.prune {
			t.Errorf("%s over [%v..%v]: prune=%v, want %v",
				tc.where.SQL(), tc.stats.Min, tc.stats.Max, got, tc.prune)
		}
	}
}

// TestCanPruneNaNBound: a FLOAT zone map bounded by NaN, as a container file
// written before storage widened NaN to [-Inf, +Inf] may carry, prunes under
// no comparison.
func TestCanPruneNaNBound(t *testing.T) {
	nan := f64(math.NaN())
	stats := []storage.ColStats{{}, {HasMinMax: true, Min: nan, Max: nan}, {}, {}}
	for _, op := range []expr.CmpOp{expr.EQ, expr.NE, expr.LT, expr.LE, expr.GT, expr.GE} {
		where := cmp(op, col("f"), lit(f64(0.5)))
		if Compile(where, intSchema(), nil).CanPrune(stats, 3) {
			t.Errorf("%s pruned a container bounded by NaN", where.SQL())
		}
	}
}

func TestCanPruneNulls(t *testing.T) {
	schema := intSchema()
	isNull := Compile(&expr.IsNull{E: col("x")}, schema, nil)
	notNull := Compile(&expr.IsNull{E: col("x"), Negate: true}, schema, nil)
	if !isNull.CanPrune(statsFor(intStats(1, 5, 0)), 100) {
		t.Error("IS NULL should prune a container with zero NULLs")
	}
	if isNull.CanPrune(statsFor(intStats(1, 5, 3)), 100) {
		t.Error("IS NULL must not prune a container holding NULLs")
	}
	allNull := storage.ColStats{NullCount: 100}
	if !notNull.CanPrune(statsFor(allNull), 100) {
		t.Error("IS NOT NULL should prune an all-NULL container")
	}
	// x > 10 over an all-NULL column is NULL for every row: prunable.
	gt := Compile(cmp(expr.GT, col("x"), lit(i64(10))), schema, nil)
	if !gt.CanPrune(statsFor(allNull), 100) {
		t.Error("comparison should prune an all-NULL container")
	}
}

func TestCanPruneConjunct(t *testing.T) {
	schema := intSchema()
	// x > 10 AND s = 'q': either conjunct alone may prove emptiness.
	where := &expr.And{L: cmp(expr.GT, col("x"), lit(i64(10))), R: cmp(expr.EQ, col("s"), lit(str("q")))}
	p := Compile(where, schema, nil)
	stats := []storage.ColStats{
		intStats(1, 5, 0),
		{},
		{HasMinMax: true, Min: types.StringValue("a"), Max: types.StringValue("z")},
		{},
	}
	if !p.CanPrune(stats, 100) {
		t.Error("x range excludes the container; conjunct should prune")
	}
	stats[0] = intStats(1, 50, 0)
	if p.CanPrune(stats, 100) {
		t.Error("neither conjunct excludes the container")
	}
	stats[2] = storage.ColStats{HasMinMax: true, Min: types.StringValue("r"), Max: types.StringValue("z")}
	if !p.CanPrune(stats, 100) {
		t.Error("string zone map should prune s = 'q'")
	}
}

func TestCanPruneEmpty(t *testing.T) {
	schema := intSchema()
	p := Compile(cmp(expr.GT, col("x"), lit(i64(10))), schema, nil)
	if !p.CanPrune(statsFor(intStats(1, 50, 0)), 0) {
		t.Error("zero-row container always prunes")
	}
	// NoZone predicate: nothing extracted, never prunes.
	bare := Compile(nil, schema, nil)
	if bare.HasZoneChecks() {
		t.Error("nil predicate extracted zone checks")
	}
}
