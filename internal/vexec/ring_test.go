package vexec

import (
	"math/rand"
	"slices"
	"testing"

	"vsfabric/internal/expr"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

// hashCmp is HASH(*) op n.
func hashCmp(op expr.CmpOp, n int64) expr.Expr {
	return cmp(op, &expr.HashFn{}, lit(types.IntValue(n)))
}

// ringBatch is n rows of x = i % 100 over the shared identity, with the
// stored whole-row hashes and their span: a container's batch as a scan of
// the whole ring hands it to the filter.
func ringBatch(t *testing.T, n int) *storage.Batch {
	t.Helper()
	schema := types.Schema{Cols: []types.Column{{Name: "x", T: types.Int64}}}
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.IntValue(int64(i % 100))}
	}
	b := mkBatch(t, schema, rows)
	b.Sel = storage.IdentitySel(n)
	b.HashSpan = vhash.Range{Lo: uint64(slices.Min(b.Hashes)), Hi: uint64(slices.Max(b.Hashes)) + 1}
	return b
}

// TestHashRangePairCompilesToOneKernel: the HASH(segcols) conjuncts of a
// partition statement intersect into one range kernel over the stored hashes
// — however many bound it — while a range admitting no ring position is one
// kernel that keeps nothing and one admitting all of them is dropped.
func TestHashRangePairCompilesToOneKernel(t *testing.T) {
	b := ringBatch(t, 3000)
	schema := b.Schema
	for _, tc := range []struct {
		name    string
		where   expr.Expr
		kernels int
		ranged  bool
	}{
		{"pair", expr.Conjoin(hashCmp(expr.GE, 1<<30), hashCmp(expr.LT, 3<<30)), 1, true},
		{"three bounds", expr.Conjoin(hashCmp(expr.GT, 1<<29), hashCmp(expr.LE, 3<<30), hashCmp(expr.GE, 1<<30)), 1, true},
		{"pair and a kernel", expr.Conjoin(hashCmp(expr.GE, 1<<30), cmp(expr.LT, col("x"), lit(types.IntValue(5))), hashCmp(expr.LT, 3<<30)), 2, true},
		{"disjoint pair", expr.Conjoin(hashCmp(expr.GE, 3<<30), hashCmp(expr.LT, 1<<30)), 1, false},
		{"NULL bound", expr.Conjoin(hashCmp(expr.GE, 1<<30), cmp(expr.LT, &expr.HashFn{}, lit(types.NullValue(types.Int64)))), 1, false},
		{"whole ring", expr.Conjoin(hashCmp(expr.GE, -4), hashCmp(expr.LT, 1<<33)), 0, false},
	} {
		p := Compile(tc.where, schema, nil)
		if p.NumKernels() != tc.kernels || (p.inRing != nil) != tc.ranged {
			t.Errorf("%s: %d kernels, range kernel %v; want %d, %v", tc.name, p.NumKernels(), p.inRing != nil, tc.kernels, tc.ranged)
		}
		if tc.ranged && len(p.conjuncts) != 1 {
			t.Errorf("%s: %d compiled conjuncts, want the HASH conjuncts as one", tc.name, len(p.conjuncts))
		}
		for _, hashes := range []bool{true, false} {
			got := ringBatch(t, 3000)
			if !hashes {
				got.Hashes = nil // a derived batch evaluates them compiled
			}
			want := interpretSel(t, tc.where, got, slices.Clone(got.Sel))
			if err := p.FilterBatch(got); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Sel, want) {
				t.Errorf("%s, stored hashes %v: kept %d rows, want %d", tc.name, hashes, len(got.Sel), len(want))
			}
		}
	}
	if err := storage.CheckIdentitySel(); err != nil {
		t.Fatal(err)
	}
}

// TestRangeKernelRunsOnSurvivors: a batch reaching the filter as the shared
// identity is read down its vectors by the typed kernel first, and only that
// kernel's survivors have their stored hash tested.
func TestRangeKernelRunsOnSurvivors(t *testing.T) {
	const n = 4000
	b := ringBatch(t, n)
	where := expr.Conjoin(hashCmp(expr.GE, 1<<30), hashCmp(expr.LT, 3<<30), cmp(expr.LT, col("x"), lit(types.IntValue(5))))
	want := interpretSel(t, where, b, slices.Clone(b.Sel))
	var fs FilterStats
	if err := Compile(where, b.Schema, nil).FilterBatchStats(b, &fs); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.Sel, want) || len(want) == 0 {
		t.Fatalf("kept %v, want %v", b.Sel, want)
	}
	if want := (FilterStats{IdentityRows: n, KernelRows: n, RangeRows: n / 20}); fs != want {
		t.Fatalf("stats %+v, want %+v", fs, want)
	}
}

// TestHashSpanDecidesBatch: a batch whose hash span lies inside the range
// keeps every row the other conjuncts keep with no hash tested, and one whose
// span lies outside it is dropped before any kernel runs. A batch with no
// span, or no stored hashes, is tested row by row.
func TestHashSpanDecidesBatch(t *testing.T) {
	const n = 2000
	span := ringBatch(t, n).HashSpan
	kernel := cmp(expr.LT, col("x"), lit(types.IntValue(5)))
	inside := expr.Conjoin(hashCmp(expr.GE, int64(span.Lo)), hashCmp(expr.LT, int64(span.Hi)), kernel)
	below := expr.Conjoin(hashCmp(expr.GE, 0), hashCmp(expr.LT, int64(span.Lo)), kernel)
	above := expr.Conjoin(hashCmp(expr.GE, int64(span.Hi)), hashCmp(expr.LT, 1<<32), kernel)
	straddles := expr.Conjoin(hashCmp(expr.GE, int64(span.Lo+1)), hashCmp(expr.LT, 1<<32), kernel)
	for _, tc := range []struct {
		name  string
		where expr.Expr
		prep  func(*storage.Batch)
		want  FilterStats
		rows  int
	}{
		{"span inside", inside, nil, FilterStats{IdentityRows: n, KernelRows: n}, n / 20},
		{"span below", below, nil, FilterStats{}, 0},
		{"span above", above, nil, FilterStats{}, 0},
		{"span straddles", straddles, nil, FilterStats{IdentityRows: n, KernelRows: n, RangeRows: n / 20}, -1},
		{"no span", inside, func(b *storage.Batch) { b.HashSpan = vhash.Range{} }, FilterStats{IdentityRows: n, KernelRows: n, RangeRows: n / 20}, n / 20},
		{"no hashes", below, func(b *storage.Batch) { b.Hashes = nil }, FilterStats{IdentityRows: n, KernelRows: n, ResidualRows: n / 20}, 0},
	} {
		b := ringBatch(t, n)
		if tc.prep != nil {
			tc.prep(b)
		}
		want := interpretSel(t, tc.where, b, slices.Clone(b.Sel))
		var fs FilterStats
		if err := Compile(tc.where, b.Schema, nil).FilterBatchStats(b, &fs); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(b.Sel, want) || tc.rows >= 0 && len(want) != tc.rows {
			t.Errorf("%s: kept %d rows, want %d (%d expected)", tc.name, len(b.Sel), len(want), tc.rows)
		}
		if fs != tc.want {
			t.Errorf("%s: stats %+v, want %+v", tc.name, fs, tc.want)
		}
	}
}

// TestRangeKernelMatchesContains diffs the range kernel against
// vhash.Range.Contains over random ranges and hash vectors — a third of the
// hashes bunched into a small part of the ring, some ranges drawn over just
// that bunch — over the shared identity, a caller's own selection and a
// selection narrowed in place.
func TestRangeKernelMatchesContains(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(5000)
		hashes := make([]uint32, n)
		bunch := uint32(rng.Int63n(1 << 32))
		for i := range hashes {
			if rng.Intn(3) == 0 {
				hashes[i] = bunch + uint32(rng.Intn(1000))
			} else {
				hashes[i] = rng.Uint32()
			}
		}
		lo := uint64(rng.Int63n(1 << 32))
		r := vhash.Range{Lo: lo, Hi: lo + uint64(rng.Int63n(int64(vhash.RingSize-lo)+1))}
		if rng.Intn(4) == 0 {
			r = vhash.Range{Lo: uint64(bunch), Hi: uint64(bunch) + 500}
		}
		var sub []int32
		for i := range n {
			if rng.Intn(3) > 0 {
				sub = append(sub, int32(i))
			}
		}
		for _, sel := range [][]int32{storage.IdentitySel(n), sub} {
			var want []int32
			for _, i := range sel {
				if r.Contains(hashes[i]) {
					want = append(want, i)
				}
			}
			b := &storage.Batch{Hashes: hashes, Sel: sel}
			k := rangeKernel(r)
			if got := k(b, sel, nil); !slices.Equal(got, want) {
				t.Fatalf("trial %d, range %v, %d of %d rows: kept %d, want %d", trial, r, len(sel), n, len(got), len(want))
			}
			if !storage.IsIdentity(sel) {
				own := slices.Clone(sel)
				if got := k(b, own, own[:0]); !slices.Equal(got, want) {
					t.Fatalf("trial %d, in place: kept %d, want %d", trial, len(got), len(want))
				}
			}
		}
	}
	if err := storage.CheckIdentitySel(); err != nil {
		t.Fatal(err)
	}
}
