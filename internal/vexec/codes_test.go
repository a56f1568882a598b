package vexec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vsfabric/internal/expr"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

// containerColumn returns vals as the INTEGER column of the container a store
// builds from them, which carries codes when the container keeps them.
func containerColumn(t testing.TB, vals []int64) *storage.Int64Column {
	t.Helper()
	schema := types.NewSchema(types.Column{Name: "k", T: types.Int64})
	st := storage.NewStore(schema, nil)
	cols := []storage.Column{&storage.Int64Column{Vals: vals}}
	if err := st.AppendColumns(cols, storage.HashColumns(cols, nil, len(vals)), 1, nil); err != nil {
		t.Fatal(err)
	}
	return st.Containers()[0].Cols[0].(*storage.Int64Column)
}

// addSat is a + d, saturating at the int64 range.
func addSat(a, d int64) int64 {
	switch {
	case d > 0 && a > math.MaxInt64-d:
		return math.MaxInt64
	case d < 0 && a < math.MinInt64-d:
		return math.MinInt64
	}
	return a + d
}

// TestCompareKernelsMatchReference: the compare kernel over a container's
// codes (codeCmp) keeps exactly the rows intCmpDense keeps over its values,
// under every comparison. The containers span 0, 1, 5, 100 and 127 above
// bases that are negative, zero, positive and at either end of the int64
// range; a span of 128 gets no codes. The literals lie below the span, at
// and beside each of its edges, inside it, past the last code and at
// MinInt64 and MaxInt64. Runs start at offsets 0–7 with lengths 0–17, so the
// word loop meets every alignment and the tail every length, and a run to
// the container's end goes through the compiled predicate as a scan's batch
// does, beside the same values without codes. Rows already in the output
// vector stay.
func TestCompareKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	const n = storage.CodeRows + 37
	for _, base := range []int64{0, -7, 1000, -1 << 40, math.MinInt64, math.MaxInt64} {
		for _, span := range []int64{0, 1, 5, 100, 127, 128} {
			lo := min(base, math.MaxInt64-span) // the values are lo .. lo+span
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = lo + rng.Int63n(span+1)
			}
			vals[3], vals[n-2] = lo, lo+span
			c := containerColumn(t, vals)
			codeBase, codes := c.Codes()
			if (codes != nil) != (span < storage.CodeSpan) {
				t.Fatalf("values %d..%d+%d: codes %v, want them iff the span is below %d", lo, lo, span, codes != nil, storage.CodeSpan)
			}
			if codes == nil {
				continue
			}
			if codeBase != lo {
				t.Fatalf("values %d..%d+%d: codes based at %d", lo, lo, span, codeBase)
			}
			lits := []int64{math.MinInt64, math.MaxInt64}
			for _, d := range []int64{-129, -2, -1, 0, 1, span / 2, span - 1, span, span + 1, 126, 127, 128, 129, 1 << 40} {
				lits = append(lits, addSat(lo, d))
			}
			for _, x := range lits {
				for _, op := range []expr.CmpOp{expr.EQ, expr.NE, expr.LT, expr.LE, expr.GT, expr.GE} {
					what := fmt.Sprintf("values %d..%d+%d, k %s %d", lo, lo, span, op, x)
					for off := 0; off < 8; off++ {
						for l := 0; l <= 17; l++ {
							want := intCmpDense(vals[off:off+l], op, x, []int32{-1})
							for k := 1; k < len(want); k++ {
								want[k] += int32(off)
							}
							if got := codeCmp(codes[off:off+l], int32(off), codeBase, op, x, []int32{-1}); !slices.Equal(got, want) {
								t.Fatalf("%s, rows %d..%d: codes kept %v, values %v", what, off, off+l, got, want)
							}
						}
					}
					p := Compile(cmp(op, col("k"), lit(types.IntValue(x))), types.NewSchema(types.Column{Name: "k", T: types.Int64}), nil)
					from := rng.Intn(8)
					coded := &storage.Batch{Cols: []storage.Column{c}, Sel: storage.IdentitySel(n)[from:]}
					plain := &storage.Batch{Cols: []storage.Column{&storage.Int64Column{Vals: vals}}, Sel: storage.IdentitySel(n)[from:]}
					if err := p.FilterBatch(coded); err != nil {
						t.Fatal(err)
					}
					if err := p.FilterBatch(plain); err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(coded.Sel, plain.Sel) {
						t.Fatalf("%s, rows %d..%d: the filter kept %d rows over codes, %d over values", what, from, n, len(coded.Sel), len(plain.Sel))
					}
				}
			}
		}
	}
}

// BenchmarkCompareKernel is the null-free INTEGER compare over one run of a
// 65 536-row container whose values are 0–99 (v2s_pushdown's pcol), as
// k < lit at 1, 5, 50 and 95 % selectivity: dense reads the 8-byte values
// (intCmpDense), codes the container's one-byte codes (codeCmp). It reports
// ns/row, and fails if the two forms keep different rows, so a run of every
// benchmark once catches a divergence.
func BenchmarkCompareKernel(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(100)
	}
	c := containerColumn(b, vals)
	base, codes := c.Codes()
	if codes == nil {
		b.Fatal("a 0–99 column of a 65 536-row container has no codes")
	}
	for _, pct := range []int64{1, 5, 50, 95} {
		dense, coded := intCmpDense(vals, expr.LT, pct, nil), codeCmp(codes, 0, base, expr.LT, pct, nil)
		if !slices.Equal(dense, coded) {
			b.Fatalf("k < %d: codes kept %d rows, values %d", pct, len(coded), len(dense))
		}
		for _, form := range []struct {
			name string
			run  func(out []int32) []int32
		}{
			{"dense", func(out []int32) []int32 { return intCmpDense(vals, expr.LT, pct, out) }},
			{"codes", func(out []int32) []int32 { return codeCmp(codes, 0, base, expr.LT, pct, out) }},
		} {
			b.Run(fmt.Sprintf("%s_%dpct", form.name, pct), func(b *testing.B) {
				out := make([]int32, 0, n)
				for range b.N {
					out = form.run(out[:0])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
			})
		}
	}
}
