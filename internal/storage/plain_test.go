package storage

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vsfabric/internal/types"
)

// plainSels is every selection shape the fixed-width codec meets, over n
// rows: the shared identity and a run of it, runs of consecutive rows with
// gaps between, a sparse selection, a reversed one and one with a few
// neighbours swapped (a sort's: the swaps keep most runBlock-long blocks'
// ends runBlock-1 apart), repeated positions (a dictionary's codes) and none.
func plainSels(rng *rand.Rand, n int) map[string][]int32 {
	var runs, reversed, repeats []int32
	swapped := slices.Clone(IdentitySel(n))
	for k := 0; k < 20; k++ {
		i := 1 + rng.Intn(n-3)
		swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
	}
	for lo := 0; lo < n; {
		hi := min(n, lo+1+rng.Intn(40))
		for i := lo; i < hi; i++ {
			runs = append(runs, int32(i))
		}
		lo = hi + rng.Intn(5)
	}
	for i := n - 1; i >= 0; i -= 1 + rng.Intn(3) {
		reversed = append(reversed, int32(i))
	}
	for i := 0; i < n; i++ {
		repeats = append(repeats, int32(rng.Intn(3)))
	}
	return map[string][]int32{
		"identity":     IdentitySel(n),
		"identity run": IdentitySel(n)[n/3 : n-7],
		"runs":         runs,
		"sparse":       randomSel(rng, n, 0.3),
		"reversed":     reversed,
		"swapped":      swapped,
		"repeats":      repeats,
		"empty":        {},
	}
}

// TestPlainWordsMatchReference: the fixed-width plain codec's run-copying
// encoder and one-copy decoder (putWords, decodeWords) equal the per-value
// reference loops (putWordsLoop, decodeWordsLoop) byte for byte, over random
// INTEGER and FLOAT vectors — every 64-bit pattern, NaN payloads and -0
// included — each selection shape of plainSels, with and without NULL
// masks, and a row block written at each offset 0–7 of its buffer, so every
// alignment of the decoder's source is met. A coded INTEGER vector (a
// container's, Int64Column.Codes) rides along, its base near MinInt64 so
// that base + code is checked at the edge: its sparse blocks are written from
// the codes, and must give the same bytes. A decoded vector owns its
// memory: clobbering the buffer it came from changes nothing. Under -race
// checkptr also checks that every unsafe view stays inside its allocation.
func TestPlainWordsMatchReference(t *testing.T) {
	const n = 1500
	rng := rand.New(rand.NewSource(42))
	schema := types.Schema{Cols: []types.Column{{Name: "i", T: types.Int64}, {Name: "f", T: types.Float64}, {Name: "c", T: types.Int64}}}
	small := &Int64Column{Vals: make([]int64, n)}
	for i := range small.Vals {
		small.Vals[i] = math.MinInt64 + int64(rng.Intn(CodeSpan))
	}
	if small.codes = cutCodes(small.Vals, math.MinInt64); small.codes == nil {
		t.Fatal("no codes for a vector spanning less than CodeSpan")
	}
	for _, withNulls := range []bool{false, true} {
		ints := &Int64Column{Vals: make([]int64, n)}
		floats := &Float64Column{Vals: make([]float64, n)}
		for i := 0; i < n; i++ {
			ints.Vals[i], floats.Vals[i] = int64(rng.Uint64()), math.Float64frombits(rng.Uint64())
		}
		floats.Vals[1], floats.Vals[2] = math.Copysign(0, -1), math.NaN()
		if withNulls {
			ints.Nulls, floats.Nulls = make([]bool, n), make([]bool, n)
			for i := 0; i < n; i++ {
				ints.Nulls[i], floats.Nulls[i] = rng.Intn(4) == 0, rng.Intn(6) == 0
			}
		}
		for name, sel := range plainSels(rng, n) {
			for _, c := range []struct {
				w     []uint64
				codes *smallCodes
			}{{words(ints.Vals), nil}, {words(floats.Vals), nil}, {words(small.Vals), small.codes}} {
				got, want := make([]byte, 8*len(sel)), make([]byte, 8*len(sel))
				putWords(got, c.w, sel, c.codes)
				putWordsLoop(want, c.w, sel)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s selection (nulls %v, codes %v): putWords differs from the reference loop", name, withNulls, c.codes != nil)
				}
			}
			batch := &Batch{Cols: []Column{ints, floats, small}, Sel: sel}
			for off := 0; off < 8; off++ {
				buf, err := AppendBatches(bytes.Repeat([]byte{0xEE}, off), schema, []*Batch{batch})
				if err != nil {
					t.Fatal(err)
				}
				_, cols, rows, err := DecodeColumns(buf[off:], n)
				if err != nil || rows != len(sel) {
					t.Fatalf("%s selection at offset %d: decoded %d rows of %d: %v", name, off, rows, len(sel), err)
				}
				if rows == 0 {
					continue
				}
				clear(buf)
				gi, gf, gc := cols[0].(*Int64Column), cols[1].(*Float64Column), cols[2].(*Int64Column)
				for k, i := range sel {
					if gc.Vals[k] != small.Vals[i] {
						t.Fatalf("%s selection at offset %d: row %d's coded value decoded %d, want %d", name, off, k, gc.Vals[k], small.Vals[i])
					}
					if gi.Vals[k] != ints.Vals[i] || math.Float64bits(gf.Vals[k]) != math.Float64bits(floats.Vals[i]) {
						t.Fatalf("%s selection at offset %d: row %d decoded (%d, %x), want (%d, %x)", name, off, k,
							gi.Vals[k], math.Float64bits(gf.Vals[k]), ints.Vals[i], math.Float64bits(floats.Vals[i]))
					}
					if gi.IsNull(k) != ints.IsNull(int(i)) || gf.IsNull(k) != floats.IsNull(int(i)) {
						t.Fatalf("%s selection at offset %d: row %d NULL flags differ", name, off, k)
					}
				}
			}
		}
	}
	raw := make([]byte, 8*64+7)
	rng.Read(raw)
	for off := 0; off < 8; off++ {
		for _, m := range []int{0, 1, 3, 64} {
			p := raw[off : off+8*m]
			if gi, wi := decodeWords[int64](p), decodeWordsLoop[int64](p); !slices.Equal(gi, wi) || len(gi) != m {
				t.Fatalf("offset %d, %d INTEGERs: decodeWords %v, reference %v", off, m, gi, wi)
			}
			gf, wf := decodeWords[float64](p), decodeWordsLoop[float64](p)
			if !slices.Equal(words(gf), words(wf)) || len(gf) != m {
				t.Fatalf("offset %d, %d FLOATs: decodeWords differs from the reference loop", off, m)
			}
		}
	}
}
