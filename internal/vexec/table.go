package vexec

import "vsfabric/internal/storage"

// intTable maps int64 keys to dense ordinals: open addressing with linear
// probing over slots that hold the key itself, so a probe touches one array.
// Load stays under 2/3 by doubling. HashAgg's single-INTEGER group key and the
// hash join's INTEGER build side both resolve keys through it.
type intTable struct {
	slots []intSlot
	mask  uint64
	n     int // keys stored
}

type intSlot struct {
	key int64
	ord int32 // ordinal + 1; 0 marks an empty slot
}

func newIntTable() *intTable {
	return &intTable{slots: make([]intSlot, 64), mask: 63}
}

func hashInt(k int64) uint64 {
	h := uint64(k) * 0x9E3779B97F4A7C15
	return h ^ (h >> 29)
}

// find returns k's ordinal, or -1 when k is absent.
func (t *intTable) find(k int64) int32 {
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

func (t *intTable) grow() {
	old := t.slots
	t.slots = make([]intSlot, 2*len(old))
	t.mask = uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.ord == 0 {
			continue
		}
		i := hashInt(s.key) & t.mask
		for t.slots[i].ord != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = s
	}
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
