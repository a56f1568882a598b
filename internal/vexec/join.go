package vexec

import (
	"math"
	"slices"

	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

// This file implements the vectorized hash join: the build side's key table
// is populated straight from column vectors (the open-addressing intTable
// when every build batch stores the key column as an int vector, a typed
// JoinKey map otherwise) and the probe side resolves its keys from vectors a
// chunk of rows at a time — rows are boxed into types.Row only for matching
// pairs, by the caller's emit function. Key semantics are the engine's typed
// join keys: NULL never matches, INTEGER matches integral FLOAT, no
// cross-family collisions.

// JoinKey is a typed, comparable hash-join key, identical in semantics to
// the engine's row-path key so both execution paths join exactly the same
// pairs.
type JoinKey struct {
	kind byte // 'i' integral numeric, 'f' non-integral float, 's' string, 'b' bool
	i    int64
	f    float64
	s    string
	b    bool
}

// JoinKeyOf builds the key for a boxed value; ok is false for NULLs (which
// never join).
func JoinKeyOf(v types.Value) (JoinKey, bool) {
	if v.Null {
		return JoinKey{}, false
	}
	switch v.T {
	case types.Int64:
		return JoinKey{kind: 'i', i: v.I}, true
	case types.Float64:
		return floatJoinKey(v.F), true
	case types.Varchar:
		return JoinKey{kind: 's', s: v.S}, true
	case types.Bool:
		return JoinKey{kind: 'b', b: v.B}, true
	default:
		return JoinKey{}, false
	}
}

// floatJoinKey normalizes integral floats to the int form so 1.0 matches
// INTEGER 1, mirroring types.Compare's numeric promotion; magnitudes beyond
// the int64-exact range stay in float form.
func floatJoinKey(f float64) JoinKey {
	if f == math.Trunc(f) && f >= -(1<<62) && f <= 1<<62 {
		return JoinKey{kind: 'i', i: int64(f)}
	}
	return JoinKey{kind: 'f', f: f}
}

// joinKeyAt extracts the key of physical row i from a column vector without
// boxing (typed fast paths; boxed fallback for drifted column types).
func joinKeyAt(col storage.Column, i int) (JoinKey, bool) {
	switch c := col.(type) {
	case *storage.Int64Column:
		if c.Nulls != nil && c.Nulls[i] {
			return JoinKey{}, false
		}
		return JoinKey{kind: 'i', i: c.Vals[i]}, true
	case *storage.Int64RLEColumn:
		return JoinKey{kind: 'i', i: c.RunVals[c.RunOf(i)]}, true
	case *storage.Float64Column:
		if c.Nulls != nil && c.Nulls[i] {
			return JoinKey{}, false
		}
		return floatJoinKey(c.Vals[i]), true
	case *storage.StringColumn:
		if c.Nulls != nil && c.Nulls[i] {
			return JoinKey{}, false
		}
		return JoinKey{kind: 's', s: c.Vals[i]}, true
	case *storage.BoolColumn:
		if c.Nulls != nil && c.Nulls[i] {
			return JoinKey{}, false
		}
		return JoinKey{kind: 'b', b: c.Vals[i]}, true
	default:
		return JoinKeyOf(col.Get(i))
	}
}

// pairRef locates one row: batch index within a batch set, physical row.
type pairRef struct{ b, r int32 }

// joinTable is the build side. Each build key has a dense key ordinal — from
// the intTable HashAgg also groups through when every build batch stores the
// key column as an int vector, from a JoinKey map otherwise — and each key
// ordinal ko owns the build-row ordinals rows[start[ko]:start[ko+1]], in build
// scan order. refs maps a build-row ordinal back to its (batch, row).
type joinTable struct {
	ints   *intTable
	gen    map[JoinKey]int32
	start  []int32
	rows   []int32
	refs   []pairRef
	probed [probeChunk]int32 // probe's result
}

func buildJoinTable(batches []*storage.Batch, keyCol int) *joinTable {
	t := &joinTable{}
	intKind := true
	total := 0
	for _, b := range batches {
		total += len(b.Sel)
		switch b.Cols[keyCol].(type) {
		case *storage.Int64Column, *storage.Int64RLEColumn:
		default:
			intKind = false
		}
	}
	t.refs = make([]pairRef, 0, total)
	keyOf := make([]int32, 0, total) // build-row ordinal -> key ordinal
	nKeys := 0
	if intKind {
		t.ints = newIntTable()
		for bi, b := range batches {
			switch col := b.Cols[keyCol].(type) {
			case *storage.Int64Column:
				for _, i := range b.Sel {
					if col.Nulls != nil && col.Nulls[i] {
						continue
					}
					keyOf = append(keyOf, t.ints.insert(col.Vals[i], int32(t.ints.n)))
					t.refs = append(t.refs, pairRef{int32(bi), i})
				}
			case *storage.Int64RLEColumn:
				cur := newRunCursor(col)
				for _, i := range b.Sel {
					cur.next(i)
					keyOf = append(keyOf, t.ints.insert(cur.val(), int32(t.ints.n)))
					t.refs = append(t.refs, pairRef{int32(bi), i})
				}
			}
		}
		nKeys = t.ints.n
	} else {
		t.gen = make(map[JoinKey]int32)
		for bi, b := range batches {
			col := b.Cols[keyCol]
			for _, i := range b.Sel {
				k, ok := joinKeyAt(col, int(i))
				if !ok {
					continue
				}
				ko, seen := t.gen[k]
				if !seen {
					ko = int32(len(t.gen))
					t.gen[k] = ko
				}
				keyOf = append(keyOf, ko)
				t.refs = append(t.refs, pairRef{int32(bi), i})
			}
		}
		nKeys = len(t.gen)
	}
	// A stable counting sort of build-row ordinals by key ordinal: each key's
	// rows stay in build scan order.
	t.start = make([]int32, nKeys+1)
	for _, ko := range keyOf {
		t.start[ko+1]++
	}
	for ko := 1; ko <= nKeys; ko++ {
		t.start[ko] += t.start[ko-1]
	}
	next := slices.Clone(t.start[:nKeys])
	t.rows = make([]int32, len(keyOf))
	for ord, ko := range keyOf {
		t.rows[next[ko]] = int32(ord)
		next[ko]++
	}
	return t
}

// probeChunk bounds how many probe rows resolve at a time, so the key-ordinal
// scratch stays a fixed 4 KiB however large a joined batch grows.
const probeChunk = 1024

// probe returns, for each row of sel (at most probeChunk of them), the key
// ordinal it matches in the probe column col, or -1: a NULL, a key the build
// side lacks, and — against int build keys — a string, a bool or a
// non-integral float match nothing. The result is overwritten by the next
// probe.
func (t *joinTable) probe(col storage.Column, sel []int32) []int32 {
	ko := t.probed[:len(sel)]
	if t.ints == nil {
		for k, i := range sel {
			ko[k] = -1
			if key, ok := joinKeyAt(col, int(i)); ok {
				if o, hit := t.gen[key]; hit {
					ko[k] = o
				}
			}
		}
		return ko
	}
	switch c := col.(type) {
	case *storage.Int64Column:
		for k, i := range sel {
			if c.Nulls != nil && c.Nulls[i] {
				ko[k] = -1
			} else {
				ko[k] = t.ints.find(c.Vals[i])
			}
		}
	case *storage.Int64RLEColumn:
		// Start at the chunk's first run, not the batch's.
		cur := runCursor{col: c, run: c.RunOf(int(sel[0])), end: -1}
		var o int32
		for k, i := range sel {
			if cur.next(i) {
				o = t.ints.find(cur.val())
			}
			ko[k] = o
		}
	default:
		for k, i := range sel {
			ko[k] = -1
			if key, ok := joinKeyAt(col, int(i)); ok && key.kind == 'i' {
				ko[k] = t.ints.find(key.i)
			}
		}
	}
	return ko
}

// matches returns key ordinal ko's build-row ordinals, in build scan order.
func (t *joinTable) matches(ko int32) []int32 { return t.rows[t.start[ko]:t.start[ko+1]] }

// JoinBatches hash-joins two batch sets on the given key columns, calling
// emit once per matching (left, right) pair in left-major order: left rows in
// scan order, each paired with its right matches in right scan order — the
// same order whichever side the hash table is built on, so the planner's
// build-side choice never changes result order. buildLeft picks the build
// side (build the smaller relation, probe the larger).
func JoinBatches(left []*storage.Batch, lcol int, right []*storage.Batch, rcol int, buildLeft bool, emit func(lb, lr, rb, rr int32)) {
	if !buildLeft {
		t := buildJoinTable(right, rcol)
		if len(t.refs) == 0 {
			return
		}
		for bi, b := range left {
			for lo := 0; lo < len(b.Sel); lo += probeChunk {
				sel := b.Sel[lo:min(lo+probeChunk, len(b.Sel))]
				for k, ko := range t.probe(b.Cols[lcol], sel) {
					if ko < 0 {
						continue
					}
					for _, ord := range t.matches(ko) {
						ref := t.refs[ord]
						emit(int32(bi), sel[k], ref.b, ref.r)
					}
				}
			}
		}
		return
	}
	// Build on the left: probe right rows into per-left-ordinal buckets, then
	// walk build ordinals (— left scan order —) to emit left-major.
	t := buildJoinTable(left, lcol)
	if len(t.refs) == 0 {
		return
	}
	buckets := make([][]pairRef, len(t.refs))
	matched := false
	for bi, b := range right {
		for lo := 0; lo < len(b.Sel); lo += probeChunk {
			sel := b.Sel[lo:min(lo+probeChunk, len(b.Sel))]
			for k, ko := range t.probe(b.Cols[rcol], sel) {
				if ko < 0 {
					continue
				}
				for _, ord := range t.matches(ko) {
					buckets[ord] = append(buckets[ord], pairRef{int32(bi), sel[k]})
					matched = true
				}
			}
		}
	}
	if !matched {
		return
	}
	for ord, ref := range t.refs {
		for _, pr := range buckets[ord] {
			emit(ref.b, ref.r, pr.b, pr.r)
		}
	}
}
