package vhash

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"vsfabric/internal/types"
)

func TestSegmentsCoverRing(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8, 16, 24} {
		segs := Segments(n)
		if segs[0].Lo != 0 {
			t.Errorf("n=%d: first segment starts at %d", n, segs[0].Lo)
		}
		if segs[n-1].Hi != RingSize {
			t.Errorf("n=%d: last segment ends at %d", n, segs[n-1].Hi)
		}
		for i := 1; i < n; i++ {
			if segs[i].Lo != segs[i-1].Hi {
				t.Errorf("n=%d: gap between segments %d and %d", n, i-1, i)
			}
		}
	}
}

func TestSplitCoversRange(t *testing.T) {
	r := Range{Lo: 100, Hi: 1000003}
	for _, k := range []int{1, 2, 7, 64} {
		parts := Split(r, k)
		if parts[0].Lo != r.Lo || parts[k-1].Hi != r.Hi {
			t.Errorf("k=%d: split does not cover range: %v", k, parts)
		}
		total := uint64(0)
		for i, p := range parts {
			if i > 0 && p.Lo != parts[i-1].Hi {
				t.Errorf("k=%d: gap at part %d", k, i)
			}
			total += p.Width()
		}
		if total != r.Width() {
			t.Errorf("k=%d: widths sum to %d, want %d", k, total, r.Width())
		}
	}
}

// Every hash lands in exactly one of the n segments, and SegmentOf agrees
// with Contains.
func TestSegmentOfConsistent(t *testing.T) {
	f := func(h uint32, nRaw uint8) bool {
		n := int(nRaw%16) + 1
		segs := Segments(n)
		idx := SegmentOf(h, n)
		if idx < 0 || idx >= n {
			return false
		}
		count := 0
		for _, s := range segs {
			if s.Contains(h) {
				count++
			}
		}
		return count == 1 && segs[idx].Contains(h)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashDeterministic(t *testing.T) {
	a := Hash(types.IntValue(7), types.StringValue("x"))
	b := Hash(types.IntValue(7), types.StringValue("x"))
	if a != b {
		t.Error("hash must be deterministic")
	}
	if Hash(types.IntValue(7)) == Hash(types.IntValue(8)) {
		t.Error("distinct ints should (almost surely) hash differently")
	}
}

func TestHashIntFloatAgree(t *testing.T) {
	if Hash(types.IntValue(42)) != Hash(types.FloatValue(42)) {
		t.Error("integral float must hash like the equal integer")
	}
}

func TestHashNullDistinct(t *testing.T) {
	if Hash(types.NullValue(types.Int64)) == Hash(types.IntValue(0)) {
		t.Error("NULL should not collide with zero by construction")
	}
}

func TestHashRowSubset(t *testing.T) {
	r := types.Row{types.IntValue(1), types.StringValue("a"), types.FloatValue(2)}
	if HashRow(r, []int{0}) != Hash(types.IntValue(1)) {
		t.Error("HashRow with index subset should hash only those columns")
	}
	if HashRow(r, nil) != Hash(r...) {
		t.Error("HashRow with no indexes should hash the whole row")
	}
}

// Hash distribution: segments of a 4-node ring should each get roughly a
// quarter of sequential integer keys.
func TestHashDistribution(t *testing.T) {
	const n, keys = 4, 40000
	counts := make([]int, n)
	for i := 0; i < keys; i++ {
		counts[SegmentOf(Hash(types.IntValue(int64(i))), n)]++
	}
	for i, c := range counts {
		frac := float64(c) / keys
		if frac < 0.2 || frac > 0.3 {
			t.Errorf("segment %d got %.3f of keys, want ~0.25", i, frac)
		}
	}
}

func TestRangeOps(t *testing.T) {
	r := Range{Lo: 10, Hi: 20}
	if !r.Contains(10) || r.Contains(20) || r.Contains(9) {
		t.Error("Contains must be half-open [Lo, Hi)")
	}
	if r.Width() != 10 {
		t.Errorf("Width = %d", r.Width())
	}
	if r.Empty() || (Range{Lo: 5, Hi: 5}).Empty() == false {
		t.Error("Empty misbehaves")
	}
}

// LocalSegmentOf picks the Split(seg, LocalSegments) range that holds h, for
// every segment of rings of 1–7 nodes, over random hashes and every boundary
// of the split ±1 (the whole-ring segment of one node included).
func TestLocalSegmentOfMatchesSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for n := 1; n <= 7; n++ {
		for _, seg := range Segments(n) {
			locals := Split(seg, LocalSegments)
			var probes []uint64
			for _, l := range locals {
				for _, b := range []uint64{l.Lo, l.Hi} {
					probes = append(probes, b-1, b, b+1)
				}
			}
			for range 2000 {
				probes = append(probes, seg.Lo+rng.Uint64()%seg.Width())
			}
			for _, p := range probes {
				if p < seg.Lo || p >= seg.Hi {
					continue
				}
				h := uint32(p)
				want := slices.IndexFunc(locals, func(l Range) bool { return l.Contains(h) })
				if got := LocalSegmentOf(seg, h); got != want {
					t.Fatalf("%d nodes, segment %v: LocalSegmentOf(%d) = %d, Split puts it in %d (%v)", n, seg, h, got, want, locals)
				}
			}
		}
	}
}
