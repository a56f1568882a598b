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
// chunk of rows at a time. HashJoin, the engine's join step, boxes no row:
// its output is vectors — the probe batches themselves or the probe side
// gathered by matched pairs, beside the build side as dictionary codes. Key
// semantics are the engine's typed join keys: NULL never matches, INTEGER
// matches integral FLOAT, no cross-family collisions.

// JoinKey is a typed, comparable hash-join key: a key column's value, with
// INTEGER and integral FLOAT one kind, so they match as types.Compare orders
// them.
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

// joinKeyAt extracts the key of physical row i from a column vector: straight
// from a dense vector without boxing, through its boxed value from a
// DictColumn (a join's build side), the one other form a key vector takes.
func joinKeyAt(col storage.Column, i int) (JoinKey, bool) {
	switch c := col.(type) {
	case *storage.Int64Column:
		if c.Nulls != nil && c.Nulls[i] {
			return JoinKey{}, false
		}
		return JoinKey{kind: 'i', i: c.Vals[i]}, true
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

// joinTable is the build side. Each build row whose key is not NULL has a
// build ordinal, in build scan order; bi and ri map it back to its (batch,
// row). Each build key has a dense key ordinal — from the intTable HashAgg
// also groups through when every build batch stores the key column as an int
// vector, from a JoinKey map otherwise — and each key ordinal ko owns the
// build ordinals rows[start[ko]:start[ko+1]], in build scan order. Key
// ordinals are handed out in build scan order too, so when every key owns one
// build row (unique) a key's ordinal is its build row's.
type joinTable struct {
	ints   *intTable
	gen    map[JoinKey]int32
	start  []int32
	rows   []int32
	bi, ri []int32
	unique bool
	probed [probeChunk]int32 // probe's result
	// codeKeys holds the key ordinal of each code a probed DictColumn has
	// carried (-1 for no match), unprobed for the others.
	codeKeys codeMemo
}

const unprobed = -2

func buildJoinTable(batches []*storage.Batch, keyCol int) *joinTable {
	t := &joinTable{}
	intKind := true
	total := 0
	for _, b := range batches {
		total += len(b.Sel)
		if _, ok := b.Cols[keyCol].(*storage.Int64Column); !ok {
			intKind = false
		}
	}
	t.bi, t.ri = make([]int32, 0, total), make([]int32, 0, total)
	keyOf := make([]int32, 0, total) // build ordinal -> key ordinal
	nKeys := 0
	if intKind {
		t.ints = newIntTable()
		for bi, b := range batches {
			col := b.Cols[keyCol].(*storage.Int64Column)
			for _, i := range b.Sel {
				if col.Nulls != nil && col.Nulls[i] {
					continue
				}
				keyOf = append(keyOf, t.ints.insert(col.Vals[i], int32(t.ints.n)))
				t.bi, t.ri = append(t.bi, int32(bi)), append(t.ri, i)
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
				t.bi, t.ri = append(t.bi, int32(bi)), append(t.ri, i)
			}
		}
		nKeys = len(t.gen)
	}
	t.unique = nKeys == len(keyOf)
	// A stable counting sort of build ordinals by key ordinal: each key's rows
	// stay in build scan order.
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
// non-integral float match nothing. A DictColumn's code is looked up in its
// dictionary the first time the probe meets it, and answered from that
// lookup after. The result is overwritten by the next probe.
func (t *joinTable) probe(col storage.Column, sel []int32) []int32 {
	ko := t.probed[:len(sel)]
	switch c := col.(type) {
	case *storage.DictColumn:
		keys := t.codeKeys.slots(c.Dict, unprobed)
		for k, i := range sel {
			code := c.Codes[i]
			if keys[code] == unprobed {
				keys[code] = t.lookup(c.Dict, int(code))
			}
			ko[k] = keys[code]
		}
		return ko
	case *storage.Int64Column:
		if t.ints != nil {
			for k, i := range sel {
				if c.Nulls != nil && c.Nulls[i] {
					ko[k] = -1
				} else {
					ko[k] = t.ints.find(c.Vals[i])
				}
			}
			return ko
		}
	}
	for k, i := range sel {
		ko[k] = t.lookup(col, int(i))
	}
	return ko
}

// lookup returns the key ordinal physical row i of col matches, or -1.
func (t *joinTable) lookup(col storage.Column, i int) int32 {
	key, ok := joinKeyAt(col, i)
	switch {
	case !ok:
		return -1
	case t.ints != nil:
		if key.kind != 'i' {
			return -1
		}
		return t.ints.find(key.i)
	}
	if o, hit := t.gen[key]; hit {
		return o
	}
	return -1
}

// matches returns key ordinal ko's build ordinals, in build scan order.
func (t *joinTable) matches(ko int32) []int32 { return t.rows[t.start[ko]:t.start[ko+1]] }

// pairs calls emit once per (build ordinal, probe batch, probe row) that
// match on the probe batches' key column col, probe-major: probe rows in scan
// order, each with its build rows in build scan order.
func (t *joinTable) pairs(probe []*storage.Batch, col int, emit func(ord, b, r int32)) {
	if len(t.bi) == 0 {
		return
	}
	for bi, b := range probe {
		for lo := 0; lo < len(b.Sel); lo += probeChunk {
			sel := b.Sel[lo:min(lo+probeChunk, len(b.Sel))]
			for k, ko := range t.probe(b.Cols[col], sel) {
				if ko < 0 {
					continue
				}
				for _, ord := range t.matches(ko) {
					emit(ord, int32(bi), sel[k])
				}
			}
		}
	}
}

// buildMajor is pairs in build-major order: build rows in scan order, each
// with its probe matches in probe scan order. The probe side's matches are
// bucketed by build ordinal first.
func (t *joinTable) buildMajor(probe []*storage.Batch, col int, emit func(ord, b, r int32)) {
	type ref struct{ b, r int32 }
	buckets := make([][]ref, len(t.bi))
	t.pairs(probe, col, func(ord, b, r int32) { buckets[ord] = append(buckets[ord], ref{b, r}) })
	for ord, bucket := range buckets {
		for _, m := range bucket {
			emit(int32(ord), m.b, m.r)
		}
	}
}

// narrow probes batch b against a unique-key table: it returns the rows of
// b.Sel whose key column col matches, in order, and for every physical row of
// b the build ordinal it matched — 0 for a row that matched nothing or is not
// selected, so every code indexes the build side.
func (t *joinTable) narrow(b *storage.Batch, col int) (sel, codes []int32) {
	sel, codes = make([]int32, 0, len(b.Sel)), make([]int32, b.Cols[col].Len())
	for lo := 0; lo < len(b.Sel); lo += probeChunk {
		chunk := b.Sel[lo:min(lo+probeChunk, len(b.Sel))]
		for k, ko := range t.probe(b.Cols[col], chunk) {
			if ko >= 0 {
				sel = append(sel, chunk[k])
				codes[chunk[k]] = ko
			}
		}
	}
	return sel, codes
}

// JoinBatches hash-joins two batch sets on the given key columns, calling
// emit once per matching (left, right) pair in left-major order: left rows in
// scan order, each paired with its right matches in right scan order — the
// same order whichever side the hash table is built on, so the planner's
// build-side choice never changes result order. buildLeft picks the build
// side (build the smaller relation, probe the larger).
func JoinBatches(left []*storage.Batch, lcol int, right []*storage.Batch, rcol int, buildLeft bool, emit func(lb, lr, rb, rr int32)) {
	if !buildLeft {
		t := buildJoinTable(right, rcol)
		t.pairs(left, lcol, func(ord, b, r int32) { emit(b, r, t.bi[ord], t.ri[ord]) })
		return
	}
	t := buildJoinTable(left, lcol)
	t.buildMajor(right, rcol, func(ord, b, r int32) { emit(t.bi[ord], t.ri[ord], b, r) })
}

// JoinSpec is one join step: each input's key column, the side the hash table
// is built on, the columns each side carries out (nil: all of them), and the
// output schema — the left side's carried columns, then the right side's.
type JoinSpec struct {
	LeftKey, RightKey   int
	BuildLeft           bool
	LeftCols, RightCols []int
	Schema              types.Schema
}

// HashJoin runs one join step over the inputs' vectors, boxing no row. Its
// rows come in left-major order whichever side is built, as JoinBatches
// emits them. The build side's carried columns leave as DictColumns over one
// gather of the build side in build-row order, all sharing one codes vector.
// When every build key owns one build row and the probe side is the left
// input, each output batch is a probe batch that matched: its vectors shared,
// its selection narrowed to the matched rows, and — a derived batch — no
// stored hashes; shared reports that form. Otherwise the probe side's carried
// columns are gathered by matched pairs into one batch.
func HashJoin(left, right []*storage.Batch, s JoinSpec) (out []*storage.Batch, shared bool, err error) {
	build, bkey, bcols, probe, pkey, pcols := right, s.RightKey, s.RightCols, left, s.LeftKey, s.LeftCols
	if s.BuildLeft {
		build, bkey, bcols, probe, pkey, pcols = left, s.LeftKey, s.LeftCols, right, s.RightKey, s.RightCols
	}
	t := buildJoinTable(build, bkey)
	if len(t.bi) == 0 {
		return nil, false, nil
	}
	dict, err := storage.GatherRows(pickColumns(build, bcols), t.bi, t.ri)
	if err != nil {
		return nil, false, err
	}
	coded := func(codes []int32) []storage.Column {
		cols := make([]storage.Column, len(dict))
		for j, d := range dict {
			cols[j] = &storage.DictColumn{Codes: codes, Dict: d}
		}
		return cols
	}
	if t.unique && !s.BuildLeft {
		for _, b := range probe {
			if len(b.Sel) == 0 {
				continue
			}
			if sel, codes := t.narrow(b, pkey); len(sel) > 0 {
				cols := append(pick(b.Cols, pcols), coded(codes)...)
				out = append(out, &storage.Batch{Schema: s.Schema, Cols: cols, Sel: sel})
			}
		}
		return out, true, nil
	}
	n := storage.SelectedRows(probe)
	pb, pr, codes := make([]int32, 0, n), make([]int32, 0, n), make([]int32, 0, n)
	emit := func(ord, b, r int32) { pb, pr, codes = append(pb, b), append(pr, r), append(codes, ord) }
	if s.BuildLeft {
		t.buildMajor(probe, pkey, emit)
	} else {
		t.pairs(probe, pkey, emit)
	}
	if len(codes) == 0 {
		return nil, false, nil
	}
	gathered, err := storage.GatherRows(pickColumns(probe, pcols), pb, pr)
	if err != nil {
		return nil, false, err
	}
	lcols, rcols := gathered, coded(codes)
	if s.BuildLeft {
		lcols, rcols = rcols, lcols
	}
	return []*storage.Batch{{Schema: s.Schema, Cols: append(lcols, rcols...), Sel: storage.IdentitySel(len(codes))}}, false, nil
}

// pickColumns narrows each batch to the given columns; nil keeps them all.
func pickColumns(batches []*storage.Batch, cols []int) []*storage.Batch {
	if cols == nil {
		return batches
	}
	out := make([]*storage.Batch, len(batches))
	for i, b := range batches {
		out[i] = b.Project(cols)
	}
	return out
}

// pick returns the columns idx names, in order (nil: all of them), in a
// slice of their own.
func pick(cols []storage.Column, idx []int) []storage.Column {
	if idx == nil {
		return slices.Clone(cols)
	}
	out := make([]storage.Column, len(idx))
	for j, c := range idx {
		out[j] = cols[c]
	}
	return out
}
