package vexec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

// TestIntTableMatchesMapReference feeds the same key streams to an intTable,
// to one hashed from the start and to a Go map, and checks after every key
// that all three give every key seen, and its neighbours, the same ordinal.
// Ordinals are the caller's and skip values, as HashAgg's NULL group makes
// them. A stream whose keys fit one span of denseSpan must leave the table
// indexing its array; both modes must show up over the whole run.
func TestIntTableMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	around := func(base int64, width, n int) []int64 {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = base + int64(rng.Intn(width)) // wraps near MaxInt64
		}
		return keys
	}
	ramp := func(from int64, step, n int) []int64 {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = from + int64(i*step)
		}
		return keys
	}
	cases := []struct {
		name string
		keys []int64
	}{
		{"duplicates", around(0, 100, 3000)},
		{"negative", around(-700, 500, 2000)},
		{"rebase downward", ramp(500, -1, 900)},
		{"rebase upward", ramp(-3, 1, 1000)},
		{"whole span", append(ramp(40, -1, 41), ramp(41, 1, denseSpan-41)...)},
		{"MinInt64 neighbours", around(math.MinInt64, 600, 2000)},
		{"MaxInt64 neighbours", around(math.MaxInt64-599, 600, 2000)},
		{"across the wrap", around(math.MaxInt64-7, 16, 200)},
		{"span exceeded by one", append(ramp(0, 1, denseSpan), -1)},
		{"past the span mid-stream", append(append(around(10, 90, 500), 10+denseSpan), around(-50, 200, 800)...)},
		{"far apart", []int64{math.MinInt64, 0, math.MaxInt64, -1, 1, math.MinInt64 + 1}},
	}
	for trial := 0; trial < 20; trial++ {
		base := rng.Int63() - rng.Int63()
		cases = append(cases, struct {
			name string
			keys []int64
		}{fmt.Sprintf("random %d", trial), around(base, 1+rng.Intn(3*denseSpan/2), 1+rng.Intn(2000))})
	}
	modes := map[bool]int{}
	for _, tc := range cases {
		dense, hashed := newIntTable(), newIntTable()
		hashed.spill()
		ref := map[int64]int32{}
		fresh := int32(0)
		minKey, maxKey := tc.keys[0], tc.keys[0]
		check := func(k int64) {
			want, ok := ref[k]
			if !ok {
				want = -1
			}
			if got := dense.find(k); got != want {
				t.Fatalf("%s: find(%d) = %d, want %d (dense %v)", tc.name, k, got, want, dense.dense != nil)
			}
			if got := hashed.find(k); got != want {
				t.Fatalf("%s: hashed table's find(%d) = %d, want %d", tc.name, k, got, want)
			}
			if o := dense.direct(k); o != 0 && o-1 != want {
				t.Fatalf("%s: direct(%d) = %d, want %d", tc.name, k, o-1, want)
			} else if o == 0 && dense.hashed(k) != want {
				t.Fatalf("%s: hashed(%d) = %d, want %d", tc.name, k, dense.hashed(k), want)
			}
		}
		for _, k := range tc.keys {
			check(k)
			// A stored key keeps its ordinal whatever fresh one is offered.
			want, ok := ref[k]
			offer := fresh
			fresh += 1 + int32(rng.Intn(2))
			if !ok {
				want, ref[k] = offer, offer
			}
			if got := dense.insert(k, offer); got != want {
				t.Fatalf("%s: insert(%d) = %d, want %d", tc.name, k, got, want)
			}
			if got := hashed.insert(k, offer); got != want {
				t.Fatalf("%s: hashed table's insert(%d) = %d, want %d", tc.name, k, got, want)
			}
			minKey, maxKey = min(minKey, k), max(maxKey, k)
			for _, nb := range []int64{k - 1, k + 1, k - denseSpan, k + denseSpan, dense.lo - 1, dense.lo + denseSpan} {
				check(nb)
			}
		}
		if dense.n != len(ref) || hashed.n != len(ref) {
			t.Fatalf("%s: %d and %d keys stored, want %d", tc.name, dense.n, hashed.n, len(ref))
		}
		if uint64(maxKey)-uint64(minKey) < denseSpan && dense.dense == nil {
			t.Errorf("%s: keys within one span [%d, %d] left the array", tc.name, minKey, maxKey)
		}
		modes[dense.dense != nil]++
	}
	if modes[true] == 0 || modes[false] == 0 {
		t.Fatalf("streams ended dense %d times, hashed %d times: want both", modes[true], modes[false])
	}
}

// TestHashAggIntKeySpanOverflowMidStream: a single INTEGER key with NULLs
// whose keys fit the array for some batches, then one past the span arrives
// in the middle of a batch, then old and new keys mix. Groups stay in
// first-seen order, NULL's included, and every COUNT and SUM equals the
// reference summed in the same row order, bit for bit.
func TestHashAggIntKeySpanOverflowMidStream(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "k", T: types.Int64}, types.Column{Name: "f", T: types.Float64})
	rng := rand.New(rand.NewSource(4))
	spec := AggSpec{GroupCols: []int{0}, Aggs: []AggExpr{{Op: AggCount, Col: -1}, {Op: AggSum, Col: 1}}}
	h := NewHashAgg(spec, schema)
	type group struct {
		count int64
		sum   float64
	}
	var order []string
	ref := map[string]*group{}
	batch := func(n int, key func(i int) int64, nulls bool) *storage.Batch {
		k := &storage.Int64Column{Vals: make([]int64, n)}
		f := &storage.Float64Column{Vals: make([]float64, n)}
		if nulls {
			k.Nulls = make([]bool, n)
		}
		for i := 0; i < n; i++ {
			k.Vals[i], f.Vals[i] = key(i), rng.NormFloat64()*1e6
			if nulls && rng.Intn(7) == 0 {
				k.Nulls[i] = true
			}
		}
		b := &storage.Batch{Schema: schema, Cols: []storage.Column{k, f}, Sel: storage.IdentitySel(n)}
		if nulls {
			var sel []int32
			for i := int32(0); i < int32(n); i++ {
				if rng.Intn(5) != 0 {
					sel = append(sel, i)
				}
			}
			b.Sel = sel
		}
		return b
	}
	small := func(int) int64 { return int64(rng.Intn(60)) - 20 }
	const far = 1 << 40
	batches := []*storage.Batch{
		batch(300, small, true),
		batch(300, small, false),
		batch(300, func(i int) int64 {
			if i == 150 {
				return far
			}
			return small(i)
		}, true),
		batch(300, func(int) int64 { return int64(rng.Intn(4)) * (far / 2) }, false),
		batch(300, func(int) int64 { return int64(rng.Intn(200)) - 100 }, true),
	}
	for x, b := range batches {
		if err := h.Consume(b); err != nil {
			t.Fatal(err)
		}
		if dense := h.ints.dense != nil; dense != (x < 2) {
			t.Fatalf("after batch %d the table indexes its array: %v", x, dense)
		}
		k, f := b.Cols[0].(*storage.Int64Column), b.Cols[1].(*storage.Float64Column)
		for _, i := range b.Sel {
			id := fmt.Sprint(k.Vals[i])
			if k.Nulls != nil && k.Nulls[i] {
				id = "NULL"
			}
			g := ref[id]
			if g == nil {
				g = &group{}
				ref[id], order = g, append(order, id)
			}
			g.count++
			g.sum += f.Vals[i]
		}
	}
	if h.NumGroups() != len(order) {
		t.Fatalf("%d groups, want %d", h.NumGroups(), len(order))
	}
	for g, id := range order {
		if key := h.GroupKey(g)[0]; (id == "NULL") != key.Null || (!key.Null && fmt.Sprint(key.I) != id) {
			t.Fatalf("group %d key %v, want %s", g, key, id)
		}
		count, sum := h.AggResult(g, 0), h.AggResult(g, 1)
		if count.I != ref[id].count || math.Float64bits(sum.F) != math.Float64bits(ref[id].sum) {
			t.Fatalf("group %s: COUNT %d, SUM %v; want %d, %v", id, count.I, sum.F, ref[id].count, ref[id].sum)
		}
	}
}

// TestJoinProbeJustOutsideDenseSpan: a join table over dense INTEGER build
// keys is probed with the keys just outside its array, [lo, lo+denseSpan),
// on both sides — at MinInt64, where lo-1 wraps to MaxInt64, too — and with
// the absent keys inside it. None matches; every build key matches its own
// ordinal.
func TestJoinProbeJustOutsideDenseSpan(t *testing.T) {
	for _, base := range []int64{0, -5000, math.MinInt64, math.MaxInt64 - 99} {
		var build []types.Value
		for k := int64(0); k < 100; k += 2 {
			build = append(build, i64(base+k))
		}
		tbl := buildJoinTable([]*storage.Batch{idBatch(t, build...)}, 0)
		if tbl.ints == nil || tbl.ints.dense == nil {
			t.Fatalf("base %d: build keys 0..98 apart left the array", base)
		}
		lo := tbl.ints.lo
		probe := []int64{lo - 1, lo - 2, lo + denseSpan, lo + denseSpan + 1, lo - denseSpan, lo + 2*denseSpan - 1}
		want := make([]int32, len(probe))
		for i := range want {
			want[i] = -1
		}
		for ko, v := range build {
			probe, want = append(probe, v.I, v.I+1), append(want, int32(ko), -1)
		}
		col := &storage.Int64Column{Vals: probe}
		got := tbl.probe(col, storage.IdentitySel(len(probe)))
		for i, k := range probe {
			if got[i] != want[i] {
				t.Errorf("base %d, lo %d: key %d matched key ordinal %d, want %d", base, lo, k, got[i], want[i])
			}
		}
	}
}
