// Package vhash implements the segmentation hash used by the engine to place
// rows on the hash ring, mirroring Vertica's SEGMENTED BY HASH(columns)
// clause (§2.1.1 of the paper). The connector's V2S locality optimization
// (§3.1.2) depends on computing exactly this hash on the client side so that
// each Spark task can request a non-overlapping hash range that lives on a
// single node.
//
// The ring is the full 32-bit space [0, 2^32). A table segmented over N nodes
// assigns node i the contiguous range [i*2^32/N, (i+1)*2^32/N).
package vhash

import (
	"math"

	"vsfabric/internal/types"
)

// RingSize is the size of the hash ring (2^32). Segment boundaries and the
// connector's sub-range arithmetic are computed in this space using uint64 so
// the exclusive upper bound 2^32 is representable.
const RingSize uint64 = 1 << 32

// Hash computes the segmentation hash of the given values on the 32-bit ring.
// It is a 64-bit FNV-1a over a canonical little-endian encoding of each
// value, folded to 32 bits. Every component (engine row routing, connector
// range queries, the SQL HASH() builtin) must agree on this function.
func Hash(vals ...types.Value) uint32 {
	h := Seed
	for _, v := range vals {
		switch {
		case v.Null:
			h = MixNull(h)
		case v.T == types.Int64:
			h = MixInt(h, v.I)
		case v.T == types.Float64:
			h = MixFloat(h, v.F)
		case v.T == types.Varchar:
			h = MixString(h, v.S)
		case v.T == types.Bool:
			h = MixBool(h, v.B)
		}
	}
	return Fold(h)
}

// Seed, the Mix functions and Fold are Hash taken apart, for callers that
// hold values unboxed (the storage layer hashes column vectors): start from
// Seed, mix each value of the row in column order, Fold the state onto the
// ring. Hash itself is written in terms of them, so the two cannot drift.
const Seed uint64 = 14695981039346656037 // FNV-1a 64-bit offset basis

const prime64 = 1099511628211

func mixByte(h uint64, c byte) uint64 { return (h ^ uint64(c)) * prime64 }

// mixUint64 mixes u's eight bytes, little end first (unrolled: this is the
// inner loop of every bulk load's routing).
func mixUint64(h, u uint64) uint64 {
	h = (h ^ (u & 0xff)) * prime64
	h = (h ^ (u >> 8 & 0xff)) * prime64
	h = (h ^ (u >> 16 & 0xff)) * prime64
	h = (h ^ (u >> 24 & 0xff)) * prime64
	h = (h ^ (u >> 32 & 0xff)) * prime64
	h = (h ^ (u >> 40 & 0xff)) * prime64
	h = (h ^ (u >> 48 & 0xff)) * prime64
	return (h ^ (u >> 56)) * prime64
}

// MixNull mixes a NULL of any type.
func MixNull(h uint64) uint64 { return mixByte(h, 0xff) }

// MixInt mixes an INTEGER.
func MixInt(h uint64, v int64) uint64 { return mixUint64(h, uint64(v)) }

// MixFloat mixes a FLOAT. Integral floats hash identically to the equal
// integer so that re-segmentation across type changes stays stable.
func MixFloat(h uint64, f float64) uint64 {
	if f == math.Trunc(f) && !math.IsInf(f, 0) && f >= math.MinInt64 && f <= math.MaxInt64 {
		return mixUint64(h, uint64(int64(f)))
	}
	return mixUint64(h, math.Float64bits(f))
}

// MixString mixes a VARCHAR (its bytes, then a terminator).
func MixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = mixByte(h, s[i])
	}
	return mixByte(h, 0)
}

// MixBool mixes a BOOLEAN.
func MixBool(h uint64, b bool) uint64 {
	if b {
		return mixByte(h, 1)
	}
	return mixByte(h, 2)
}

// Fold maps a finished hash state onto the 32-bit ring.
func Fold(h uint64) uint32 { return uint32(h ^ (h >> 32)) }

// HashRow hashes the row's values at the given column indexes. An empty index
// list hashes the whole row (the "synthetic hash" used for views and
// unsegmented tables, §3.1 of the paper).
func HashRow(r types.Row, colIdx []int) uint32 {
	if len(colIdx) == 0 {
		return Hash(r...)
	}
	vals := make([]types.Value, len(colIdx))
	for i, c := range colIdx {
		vals[i] = r[c]
	}
	return Hash(vals...)
}

// Range is a half-open interval [Lo, Hi) on the hash ring. Hi may be RingSize
// (one past the largest 32-bit value).
type Range struct {
	Lo uint64
	Hi uint64
}

// Contains reports whether hash h falls inside the range.
func (r Range) Contains(h uint32) bool { return uint64(h) >= r.Lo && uint64(h) < r.Hi }

// Width returns the number of ring positions covered.
func (r Range) Width() uint64 { return r.Hi - r.Lo }

// Empty reports whether the range covers nothing.
func (r Range) Empty() bool { return r.Hi <= r.Lo }

// Intersect returns the positions both ranges cover (empty when none).
func (r Range) Intersect(o Range) Range { return Range{Lo: max(r.Lo, o.Lo), Hi: min(r.Hi, o.Hi)} }

// Covers reports whether every position of o lies inside r.
func (r Range) Covers(o Range) bool { return r.Lo <= o.Lo && o.Hi <= r.Hi }

// Segments divides the ring into n contiguous, non-overlapping segments that
// exactly cover [0, RingSize). Segment i is assigned to node i, the layout
// recorded in the system catalog and consulted by the connector (§3.1.2).
func Segments(n int) []Range {
	out := make([]Range, n)
	for i := 0; i < n; i++ {
		out[i] = Range{
			Lo: RingSize * uint64(i) / uint64(n),
			Hi: RingSize * uint64(i+1) / uint64(n),
		}
	}
	return out
}

// Split divides a range into k contiguous sub-ranges that exactly cover it.
// The connector uses this to give each Spark partition a unique slice of a
// segment (Figure 4(b): 8 partitions over 4 segments → each asks for half a
// segment). Sub-range widths differ by at most one ring position. A store
// cuts its containers at Split(segment, LocalSegments), and for k dividing
// LocalSegments every boundary of Split(r, k) is one of those
// (r.Lo + w·i/k = r.Lo + w·(i·L/k)/L), so a partition of 1, 2 or 4 slices a
// segment is a union of whole local segments.
func Split(r Range, k int) []Range {
	out := make([]Range, k)
	w := r.Width()
	for i := 0; i < k; i++ {
		out[i] = Range{
			Lo: r.Lo + w*uint64(i)/uint64(k),
			Hi: r.Lo + w*uint64(i+1)/uint64(k),
		}
	}
	return out
}

// SegmentOf returns the index of the segment containing hash h when the ring
// is divided into n equal segments.
func SegmentOf(h uint32, n int) int {
	return int(uint64(h) * uint64(n) / RingSize)
}

// LocalSegments is how many local segments a store cuts the ring range it
// holds into (Vertica's default scaling factor): no container a store builds
// from a large write spans two of them (storage.LocalCutRows), so a V2S
// partition whose range is a union of local segments takes or skips each
// such container whole, by its hash span. The 1, 2 or 4 slices per segment
// the connector asks for on up to four executor cores a node all divide it.
const LocalSegments = 4

// LocalSegmentOf returns which of Split(seg, LocalSegments) holds h, for h
// inside seg. It compares h with the same boundaries Split computes, so the
// two agree exactly; the division is by a constant, so there is none.
func LocalSegmentOf(seg Range, h uint32) int {
	w, x, i := seg.Width(), uint64(h), 0
	for j := uint64(1); j < LocalSegments; j++ {
		if x >= seg.Lo+w*j/LocalSegments {
			i++
		}
	}
	return i
}
