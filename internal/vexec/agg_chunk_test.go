package vexec

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"vsfabric/internal/storage"
)

// wideBatch is a batch of n rows over intSchema: x in [0, keys) with NULLs,
// f spread over many magnitudes (so a sum's order shows in its bits), s
// naming x, b alternating.
func wideBatch(rng *rand.Rand, n, keys int) *storage.Batch {
	x := &storage.Int64Column{Vals: make([]int64, n), Nulls: make([]bool, n)}
	f := &storage.Float64Column{Vals: make([]float64, n)}
	s := &storage.StringColumn{Vals: make([]string, n)}
	b := &storage.BoolColumn{Vals: make([]bool, n)}
	for i := 0; i < n; i++ {
		x.Vals[i] = int64(rng.Intn(keys))
		x.Nulls[i] = rng.Intn(50) == 0
		f.Vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)))
		s.Vals[i] = string(rune('a' + x.Vals[i]%26))
		b.Vals[i] = i%2 == 0
	}
	return &storage.Batch{Schema: intSchema(), Cols: []storage.Column{x, f, s, b}, Sel: storage.IdentitySel(n)}
}

// TestHashAggChunksMatchSmallBatches: a batch far past one chunk — its whole
// identity selection, a run of it, or a selection of its own — aggregates to
// the bit what the same rows consumed as many small batches do.
func TestHashAggChunksMatchSmallBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const n = 5*aggChunk + 321
	big := wideBatch(rng, n, 37)
	var picked []int32
	for i := int32(0); i < n; i++ {
		if rng.Intn(7) != 0 {
			picked = append(picked, i)
		}
	}
	spec := AggSpec{Aggs: []AggExpr{{Op: AggCount, Col: -1}}}
	for _, op := range []AggOp{AggCount, AggSum, AggAvg, AggMin, AggMax} {
		for col := 0; col < 4; col++ {
			if col >= 2 && (op == AggSum || op == AggAvg) { // numbers only
				continue
			}
			spec.Aggs = append(spec.Aggs, AggExpr{Op: op, Col: col})
		}
	}
	for _, keys := range [][]int{nil, {0}, {2}, {2, 0}} {
		spec.GroupCols = keys
		for _, sel := range [][]int32{big.Sel, big.Sel[1000:4500], picked} {
			whole, parts := NewHashAgg(spec, big.Schema), NewHashAgg(spec, big.Schema)
			if err := whole.Consume(&storage.Batch{Schema: big.Schema, Cols: big.Cols, Sel: sel}); err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < len(sel); lo += 100 {
				small := slices.Clone(sel[lo:min(lo+100, len(sel))])
				if err := parts.Consume(&storage.Batch{Schema: big.Schema, Cols: big.Cols, Sel: small}); err != nil {
					t.Fatal(err)
				}
			}
			if whole.NumGroups() != parts.NumGroups() || whole.Rows() != parts.Rows() {
				t.Fatalf("keys %v: %d groups over %d rows whole, %d over %d in parts", keys, whole.NumGroups(), whole.Rows(), parts.NumGroups(), parts.Rows())
			}
			for g := 0; g < whole.NumGroups(); g++ {
				if !slices.Equal(whole.GroupKey(g), parts.GroupKey(g)) {
					t.Fatalf("keys %v: group %d is %v whole, %v in parts", keys, g, whole.GroupKey(g), parts.GroupKey(g))
				}
				for j := range spec.Aggs {
					w, p := whole.accs[j][g], parts.accs[j][g]
					wf, pf := math.Float64bits(w.sumF), math.Float64bits(p.sumF)
					if w.sumF, p.sumF = 0, 0; w != p || wf != pf {
						t.Fatalf("keys %v: group %d aggregate %d is %+v whole, %+v in parts", keys, g, j, w, p)
					}
				}
			}
		}
	}
}

// TestHashAggConsumeAllocsDoNotGrowWithBatch: a statement's aggregator
// allocates the same bytes for a 20 000-row batch as for a 1 000-row one
// over the same groups — its scratch is one chunk, whatever the batch.
func TestHashAggConsumeAllocsDoNotGrowWithBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	spec := AggSpec{GroupCols: []int{0}, Aggs: []AggExpr{{Op: AggCount, Col: -1}, {Op: AggSum, Col: 1}, {Op: AggMax, Col: 1}}}
	bytesFor := func(b *storage.Batch) uint64 {
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < runs; r++ {
			h := NewHashAgg(spec, b.Schema)
			if err := h.Consume(b); err != nil {
				t.Fatal(err)
			}
			if h.NumGroups() != 11 { // ten keys and NULL
				t.Fatalf("%d groups, want 11", h.NumGroups())
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, large := wideBatch(rng, 1000, 10), wideBatch(rng, 20000, 10)
	bytesFor(large) // settle one-time growth (the shared identity vector)
	if s, l := bytesFor(small), bytesFor(large); l > s+512 {
		t.Fatalf("Consume of 20 000 rows allocates %d B, of 1 000 rows %d B: the scratch grows with the batch", l, s)
	}
}
