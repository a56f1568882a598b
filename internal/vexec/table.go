package vexec

import "vsfabric/internal/storage"

// intTable maps int64 keys to ordinals the caller picks. It has two modes.
// While every key it has seen lies in one span of denseSpan values it indexes
// an array: dense[k-lo] holds k's ordinal, so a lookup is one load. The first
// key that does not fit moves the keys, once, into open addressing with
// linear probing over slots that hold the key itself, so a probe touches one
// array; load stays under 2/3 by doubling. HashAgg's single-INTEGER group key
// and the hash join's INTEGER build side both resolve keys through it.
//
// Hot loops test direct first and call hashed only when it misses: find with
// both modes in it does not inline, and the call costs most of what the array
// saves.
type intTable struct {
	// dense is nil once the table is hashed. Offsets wrap: slot d holds key
	// lo+d modulo 2⁶⁴, one int64 value per slot, so a span near MinInt64 or
	// MaxInt64 needs no care. minKey and maxKey bound the keys stored, in
	// int64 order, which is what decides whether a new key still fits.
	dense          []int32 // ordinal + 1; 0 marks an absent key
	lo             int64
	minKey, maxKey int64

	slots []intSlot
	mask  uint64
	n     int // keys stored
}

type intSlot struct {
	key int64
	ord int32 // ordinal + 1; 0 marks an empty slot
}

// denseSpan bounds the keys an intTable indexes directly. 1 024 ordinals are
// 4 KiB, the size of the join probe's key-ordinal scratch (probeChunk): the
// array stays cache-resident beside the vectors a batch streams through, and
// a table over few keys costs that much however sparse they are. A
// GROUP BY's or a dimension's small code domain fits; a wider domain hashes.
const denseSpan = 1024

func newIntTable() *intTable {
	// A dense table's single empty slot makes hashed answer "absent".
	return &intTable{dense: make([]int32, denseSpan), slots: make([]intSlot, 1)}
}

func hashInt(k int64) uint64 {
	h := uint64(k) * 0x9E3779B97F4A7C15
	return h ^ (h >> 29)
}

// find returns k's ordinal, or -1 when k is absent.
func (t *intTable) find(k int64) int32 {
	if o := t.direct(k); o != 0 {
		return o - 1
	}
	return t.hashed(k)
}

// direct returns k's ordinal + 1 from the dense array: 0 when k is absent
// from it, which is always once the table is hashed.
func (t *intTable) direct(k int64) int32 {
	if d := uint64(k) - uint64(t.lo); d < uint64(len(t.dense)) {
		return t.dense[d]
	}
	return 0
}

// hashed returns k's ordinal from the slots, or -1 when k is absent; a dense
// table's one slot is empty.
func (t *intTable) hashed(k int64) int32 {
	for i := hashInt(k) & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s.ord == 0 {
			return -1
		}
		if s.key == k {
			return s.ord - 1
		}
	}
}

// insert returns k's ordinal; an absent k is stored with the ordinal fresh,
// which the caller picks densely (the next group, the next distinct key).
func (t *intTable) insert(k int64, fresh int32) int32 {
	if t.dense != nil {
		if t.n == 0 {
			// Centre the span on the first key: keys spreading either way
			// from it fit without a rebase.
			t.lo, t.minKey, t.maxKey = int64(uint64(k)-denseSpan/2), k, k
		}
		d := uint64(k) - uint64(t.lo)
		if d >= denseSpan && t.rebase(k) {
			d = uint64(k) - uint64(t.lo)
		}
		if d < denseSpan {
			if o := t.dense[d]; o != 0 {
				return o - 1
			}
			t.dense[d] = fresh + 1
			t.n++
			t.minKey, t.maxKey = min(t.minKey, k), max(t.maxKey, k)
			return fresh
		}
		t.spill()
	}
	i := hashInt(k) & t.mask
	for ; t.slots[i].ord != 0; i = (i + 1) & t.mask {
		if t.slots[i].key == k {
			return t.slots[i].ord - 1
		}
	}
	t.slots[i] = intSlot{key: k, ord: fresh + 1}
	t.n++
	if uint64(t.n)*3 >= uint64(len(t.slots))*2 {
		t.grow()
	}
	return fresh
}

// rebase moves the span so it holds k beside every key stored, centring them
// in it, and reports whether they fit one span.
func (t *intTable) rebase(k int64) bool {
	lo, hi := min(t.minKey, k), max(t.maxKey, k)
	width := uint64(hi) - uint64(lo) // hi >= lo, so this does not wrap
	if width >= denseSpan {
		return false
	}
	nlo := int64(uint64(lo) - (denseSpan-1-width)/2)
	// Both spans hold every stored key, so they overlap by more than the
	// shift: |shift| < denseSpan.
	shift := int64(uint64(t.lo) - uint64(nlo))
	if shift > 0 {
		copy(t.dense[shift:], t.dense[:denseSpan-shift])
		clear(t.dense[:shift])
	} else {
		copy(t.dense, t.dense[-shift:])
		clear(t.dense[denseSpan+shift:])
	}
	t.lo = nlo
	return true
}

// spill moves the dense array's keys into slots sized for them plus one, and
// leaves the table hashed for good.
func (t *intTable) spill() {
	size := 64
	for uint64(t.n+1)*3 >= uint64(size)*2 {
		size *= 2
	}
	t.slots = make([]intSlot, size)
	t.mask = uint64(size - 1)
	for d, o := range t.dense {
		if o != 0 {
			t.place(intSlot{key: int64(uint64(t.lo) + uint64(d)), ord: o})
		}
	}
	t.dense = nil
}

func (t *intTable) grow() {
	old := t.slots
	t.slots = make([]intSlot, 2*len(old))
	t.mask = uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.ord != 0 {
			t.place(s)
		}
	}
}

// place stores s, whose key is absent, in the first empty slot of its probe
// sequence.
func (t *intTable) place(s intSlot) {
	i := hashInt(s.key) & t.mask
	for t.slots[i].ord != 0 {
		i = (i + 1) & t.mask
	}
	t.slots[i] = s
}

// codeMemo remembers, per dictionary of the DictColumns a consumer meets, an
// answer for each code: the join probe's key ordinal, HashAgg's group. Kept
// per dictionary, a code is resolved once however many batches carry it.
type codeMemo map[storage.Column][]int32

// slots returns dict's answers, one per code, each unset until its code is
// first resolved.
func (m *codeMemo) slots(dict storage.Column, unset int32) []int32 {
	s := (*m)[dict]
	if s == nil {
		s = make([]int32, dict.Len())
		for code := range s {
			s[code] = unset
		}
		if *m == nil {
			*m = make(codeMemo)
		}
		(*m)[dict] = s
	}
	return s
}
