package vexec

import (
	"encoding/binary"
	"fmt"
	"math"

	"vsfabric/internal/expr"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

// This file implements vectorized hash aggregation over storage.Batch: group
// keys are resolved batch-at-a-time into dense group ordinals — a single
// INTEGER key through intTable (an array over a small key span, open
// addressing past it), a single VARCHAR key through a map keyed by the string
// itself, any other key through a byte-encoded key map; a single key that
// arrives dictionary-coded (a join's build column) resolves each code once
// per dictionary — then each aggregate
// runs a loop specialised by its op and its argument's stored form: COUNT touches only the count, SUM/AVG only the
// sum state, MIN/MAX the whole accumulator. Every vector is of its schema
// column's type, so an accumulator holds values of one type, the argument's,
// and finalizes by it; a vector of another type fails the batch. Values are
// boxed into types.Value only once per new group, never per input row. An
// aggregate whose argument is an expression rather than a column evaluates it
// compiled (CompileExpr) into one vector per batch, which feeds the same typed
// loops a column does.
// Accumulator semantics are SQL's as the test oracle's row-at-a-time reference
// states them (null handling, int-vs-float SUM typing, first-seen MIN/MAX
// ties, AVG = float sum / non-null count), and the equivalence property suites
// diff the two.

// AggOp is an aggregate function.
type AggOp int

const (
	AggCount AggOp = iota // COUNT(*) when Col < 0, COUNT(col) otherwise
	AggSum
	AggAvg
	AggMin
	AggMax
)

// AggExpr is one aggregate item: Op over the schema column Col, or — when Arg
// is set — over the vector Arg evaluates to. Col < 0 with no Arg means
// COUNT(*) (count every selected row, null or not).
type AggExpr struct {
	Op  AggOp
	Col int
	Arg expr.Expr
}

// AggSpec describes one GROUP BY pipeline: the schema indexes of the group
// key columns (empty = one global group) and the aggregate items.
type AggSpec struct {
	GroupCols []int
	Aggs      []AggExpr
}

// aggAcc is one (group, aggregate) accumulator: the state of every op over
// non-NULL values, count being how many. Which of it result reads is decided
// by the op and by the type of the aggregate's argument, which every vector
// it reads has.
type aggAcc struct {
	count int64
	sumF  float64
	sumI  int64

	minI, maxI int64
	minF, maxF float64
	minS, maxS string
	minB, maxB bool
}

// addInt and addFloat are SUM/AVG's updates: they keep exactly what result
// reads for those ops (count and the sums) and none of the bounds. Per
// group, values still add in row order, so a float sum is the reference's bit
// for bit.
func (a *aggAcc) addInt(v int64) {
	a.count++
	a.sumF += float64(v)
	a.sumI += v
}

func (a *aggAcc) addFloat(v float64) {
	a.count++
	a.sumF += v
}

// updateInt, updateFloat, updateString and updateBool are the full update
// MIN/MAX need, one per argument type.
func (a *aggAcc) updateInt(v int64) {
	first := a.count == 0
	a.addInt(v)
	if first || v < a.minI {
		a.minI = v
	}
	if first || v > a.maxI {
		a.maxI = v
	}
}

func (a *aggAcc) updateFloat(v float64) {
	first := a.count == 0
	a.addFloat(v)
	// Strict comparisons: a NaN bound is never displaced and a NaN value
	// never displaces, matching types.Compare's unordered-NaN behavior.
	if first || v < a.minF {
		a.minF = v
	}
	if first || v > a.maxF {
		a.maxF = v
	}
}

func (a *aggAcc) updateString(v string) {
	first := a.count == 0
	// The reference sums v.AsFloat() for every non-null value, which parses
	// varchars (NaN when unparsable); keep that — odd — behavior.
	a.addFloat(types.Value{T: types.Varchar, S: v}.AsFloat())
	if first || v < a.minS {
		a.minS = v
	}
	if first || v > a.maxS {
		a.maxS = v
	}
}

func (a *aggAcc) updateBool(v bool) {
	first := a.count == 0
	a.addFloat(float64(b2b(v)))
	a.minB = v && (first || a.minB) // false < true
	a.maxB = v || (!first && a.maxB)
}

// result finalizes op over an argument of type t: COUNT as INTEGER, AVG as
// FLOAT, SUM as INTEGER over INTEGER values and FLOAT otherwise, MIN and MAX
// as t; every op but COUNT is NULL over no value.
func (a *aggAcc) result(op AggOp, t types.Type) types.Value {
	switch {
	case op == AggCount:
		return types.IntValue(a.count)
	case a.count == 0:
		return types.NullValue(types.Float64)
	case op == AggAvg:
		return types.FloatValue(a.sumF / float64(a.count))
	case op == AggSum && t == types.Int64:
		return types.IntValue(a.sumI)
	case op == AggSum:
		return types.FloatValue(a.sumF)
	}
	switch t {
	case types.Int64:
		return types.IntValue(bound(op, a.minI, a.maxI))
	case types.Float64:
		return types.FloatValue(bound(op, a.minF, a.maxF))
	case types.Varchar:
		return types.StringValue(bound(op, a.minS, a.maxS))
	case types.Bool:
		return types.BoolValue(bound(op, a.minB, a.maxB))
	}
	return types.NullValue(types.Float64)
}

// bound is MIN's bound lo or MAX's hi.
func bound[T any](op AggOp, lo, hi T) T {
	if op == AggMin {
		return lo
	}
	return hi
}

// HashAgg is a single-pass vectorized hash aggregator. It is used by a single
// goroutine: parallel segment scans feed batches to a coordinator that calls
// Consume in deterministic segment order, which keeps float SUM/AVG
// accumulation order identical to the sequential reference path.
type HashAgg struct {
	spec AggSpec

	// Group-key tables; at most one is set. ints serves a single INTEGER key,
	// strs a single VARCHAR key (keyed by the string itself), byKey any other
	// key (byte-encoded). A single key's NULL is a group of its own, boxed as
	// a NULL of keyType.
	ints    *intTable
	strs    map[string]int32
	byKey   map[string]int32
	keyType types.Type
	nullGrp int32 // -1 until a single key's NULL is seen
	// codeGroups holds the group of each code a single DictColumn key has
	// carried, -1 for the others.
	codeGroups codeMemo

	keys [][]types.Value // group ordinal -> boxed key values, first-seen order
	accs [][]aggAcc      // aggregate index -> group ordinal -> accumulator

	// groupOf and codes are the scratch of the chunk Consume is on: its rows'
	// group ordinals, and (made when first needed) a dictionary-coded
	// argument's codes at its rows.
	groupOf [aggChunk]int32
	codes   []int32
	keyCols []storage.Column // the batch's group key columns, for a multi-column key
	argCols []storage.Column // aggregate index -> the vector it reads in this batch
	keyBuf  []byte

	args []Vec        // aggregate index -> its expression argument, compiled; nil for a column
	argT []types.Type // aggregate index -> its argument's type (a column's or the expression's)

	rows         int64 // selected rows consumed
	fallbackRows int64 // rows an expression argument evaluated through its per-row value loop
	boxed        bool  // the batch being consumed did
}

// NewHashAgg builds an aggregator for one query. schema is the batch schema
// the spec's column indexes refer to.
func NewHashAgg(spec AggSpec, schema types.Schema) *HashAgg {
	h := &HashAgg{spec: spec, nullGrp: -1, accs: make([][]aggAcc, len(spec.Aggs))}
	if len(spec.GroupCols) == 1 && spec.GroupCols[0] < len(schema.Cols) {
		h.keyType = schema.Cols[spec.GroupCols[0]].T
	}
	switch {
	case len(spec.GroupCols) == 0:
	case h.keyType == types.Int64:
		h.ints = newIntTable()
	case h.keyType == types.Varchar:
		h.strs = make(map[string]int32)
	default:
		h.byKey = make(map[string]int32)
	}
	h.args, h.argT = make([]Vec, len(spec.Aggs)), make([]types.Type, len(spec.Aggs))
	h.argCols = make([]storage.Column, len(spec.Aggs))
	if len(spec.GroupCols) > 1 {
		h.keyCols = make([]storage.Column, len(spec.GroupCols))
	}
	for j, a := range spec.Aggs {
		switch {
		case a.Arg != nil:
			h.args[j], h.argT[j] = CompileExpr(a.Arg, schema)
		case a.Col >= 0:
			h.argT[j] = schema.Cols[a.Col].T
		}
	}
	if len(spec.GroupCols) == 0 {
		// A global aggregate over zero rows still yields one row.
		h.newGroup(nil)
	}
	return h
}

func (h *HashAgg) newGroup(keyVals []types.Value) int32 {
	g := int32(len(h.keys))
	h.keys = append(h.keys, keyVals)
	for j := range h.accs {
		h.accs[j] = append(h.accs[j], aggAcc{})
	}
	return g
}

func (h *HashAgg) newIntGroup(k int64) int32 {
	h.ints.insert(k, int32(len(h.keys)))
	return h.newGroup([]types.Value{types.IntValue(k)})
}

// lookupString returns the group ordinal for a VARCHAR key, creating the
// group on first sight.
func (h *HashAgg) lookupString(s string) int32 {
	g, ok := h.strs[s]
	if !ok {
		g = h.newGroup([]types.Value{types.StringValue(s)})
		h.strs[s] = g
	}
	return g
}

func (h *HashAgg) nullGroup() int32 {
	if h.nullGrp < 0 {
		h.nullGrp = h.newGroup([]types.Value{types.NullValue(h.keyType)})
	}
	return h.nullGrp
}

// aggChunk is how many selected rows Consume resolves and aggregates at a
// time, the join probe's chunk (probeChunk): a batch of any size costs the
// aggregator one fixed scratch of group ordinals, not one sized to the
// statement's first batch. Each aggregate still reads every chunk's rows in
// order, so a FLOAT sum adds them in the order the whole batch would.
const aggChunk = probeChunk

// Consume folds one filtered batch into the aggregation state. It fails when
// an expression argument does, or when a vector it reads is not of its
// schema column's type.
func (h *HashAgg) Consume(b *storage.Batch) error {
	n := len(b.Sel)
	if n == 0 {
		return nil
	}
	if h.keyType != types.Unknown {
		if t := b.Cols[h.spec.GroupCols[0]].Type(); t != h.keyType {
			return fmt.Errorf("vexec: a %v group key vector under a %v key column", t, h.keyType)
		}
	}
	h.rows += int64(n)
	if h.keyCols != nil {
		for x, gc := range h.spec.GroupCols {
			h.keyCols[x] = b.Cols[gc]
		}
	}
	// Each aggregate's vector, an expression argument's compiled over the
	// whole batch once.
	for j, ae := range h.spec.Aggs {
		var col storage.Column
		switch {
		case h.args[j] != nil:
			var err error
			if col, err = h.args[j](b, b.Sel); err != nil {
				return err
			}
			h.boxed = true
		case ae.Col >= 0:
			col = b.Cols[ae.Col]
		}
		if col != nil && col.Type() != h.argT[j] {
			return fmt.Errorf("vexec: aggregate %d reads a %v vector, its argument is %v", j, col.Type(), h.argT[j])
		}
		h.argCols[j] = col
	}
	for lo := 0; lo < n; lo += aggChunk {
		sel := b.Sel[lo:min(lo+aggChunk, n)]
		groupOf := h.groupOf[:len(sel)]
		h.resolveGroups(b, sel, groupOf)
		for j := range h.spec.Aggs {
			if err := h.updateAgg(j, sel, groupOf); err != nil {
				return err
			}
		}
	}
	if h.boxed {
		h.fallbackRows, h.boxed = h.fallbackRows+int64(n), false
	}
	return nil
}

// resolveGroups fills groupOf[k] with the group ordinal of row sel[k].
func (h *HashAgg) resolveGroups(b *storage.Batch, sel, groupOf []int32) {
	switch {
	case len(h.spec.GroupCols) == 0:
		clear(groupOf)
	case len(h.spec.GroupCols) == 1:
		h.resolveKey(b.Cols[h.spec.GroupCols[0]], sel, groupOf)
	default:
		h.resolveGeneric(h.keyCols, sel, groupOf)
	}
}

// resolveKey resolves the rows sel of a single key column.
func (h *HashAgg) resolveKey(col storage.Column, sel, groupOf []int32) {
	if d, ok := col.(*storage.DictColumn); ok {
		h.resolveCodes(d, sel, groupOf)
		return
	}
	switch {
	case h.ints != nil:
		h.resolveInts(col, sel, groupOf)
	case h.strs != nil:
		h.resolveStrings(col, sel, groupOf)
	default:
		h.resolveGeneric([]storage.Column{col}, sel, groupOf)
	}
}

// resolveCodes resolves a dictionary-coded key: a code's group is looked up
// in the dictionary the first time a row carries it, so groups are still
// discovered in row order, and read from that lookup after — in this batch
// and every later one over the same dictionary.
func (h *HashAgg) resolveCodes(d *storage.DictColumn, sel, groupOf []int32) {
	groups := h.codeGroups.slots(d.Dict, -1)
	for k, i := range sel {
		code := d.Codes[i]
		if groups[code] < 0 {
			h.resolveKey(d.Dict, d.Codes[i:i+1], groups[code:code+1])
		}
		groupOf[k] = groups[code]
	}
}

func (h *HashAgg) resolveInts(col storage.Column, sel, groupOf []int32) {
	c := col.(*storage.Int64Column)
	// direct and hashed inline here, so only a new key or a NULL pays a
	// call. Over a run from lo (storage.IdentityRun), row k is
	// c.Vals[lo+k].
	t := h.ints
	if lo, ok := storage.IdentityRun(sel); ok && c.Nulls == nil {
		for k, v := range c.Vals[lo : lo+len(sel)] {
			if o := t.direct(v); o != 0 {
				groupOf[k] = o - 1
			} else if g := t.hashed(v); g >= 0 {
				groupOf[k] = g
			} else {
				groupOf[k] = h.newIntGroup(v)
			}
		}
		return
	}
	for k, i := range sel {
		if c.Nulls != nil && c.Nulls[i] {
			groupOf[k] = h.nullGroup()
		} else if o := t.direct(c.Vals[i]); o != 0 {
			groupOf[k] = o - 1
		} else if g := t.hashed(c.Vals[i]); g >= 0 {
			groupOf[k] = g
		} else {
			groupOf[k] = h.newIntGroup(c.Vals[i])
		}
	}
}

func (h *HashAgg) resolveStrings(col storage.Column, sel, groupOf []int32) {
	c := col.(*storage.StringColumn)
	for k, i := range sel {
		if c.Nulls != nil && c.Nulls[i] {
			groupOf[k] = h.nullGroup()
		} else {
			groupOf[k] = h.lookupString(c.Vals[i])
		}
	}
}

// resolveGeneric handles multi-column keys and single FLOAT or BOOLEAN keys,
// given the key columns in GROUP BY order, by encoding each key into a compact
// byte string (type-tagged, length-prefixed — no separator ambiguity, NULL
// distinct from any value) and interning it in a map.
func (h *HashAgg) resolveGeneric(keys []storage.Column, sel, groupOf []int32) {
	buf := h.keyBuf
	for k, i := range sel {
		buf = appendKey(buf[:0], keys, int(i))
		g, ok := h.byKey[string(buf)]
		if !ok {
			vals := make([]types.Value, len(keys))
			for x, col := range keys {
				vals[x] = col.Get(int(i))
			}
			g = h.newGroup(vals)
			h.byKey[string(buf)] = g
		}
		groupOf[k] = g
	}
	h.keyBuf = buf
}

func appendKey(buf []byte, keys []storage.Column, i int) []byte {
	for _, col := range keys {
		switch c := col.(type) {
		case *storage.Int64Column:
			if c.Nulls != nil && c.Nulls[i] {
				buf = append(buf, 0)
				continue
			}
			buf = appendKeyInt(buf, c.Vals[i])
		case *storage.Float64Column:
			if c.Nulls != nil && c.Nulls[i] {
				buf = append(buf, 0)
				continue
			}
			buf = appendKeyFloat(buf, c.Vals[i])
		case *storage.StringColumn:
			if c.Nulls != nil && c.Nulls[i] {
				buf = append(buf, 0)
				continue
			}
			buf = appendKeyString(buf, c.Vals[i])
		case *storage.BoolColumn:
			if c.Nulls != nil && c.Nulls[i] {
				buf = append(buf, 0)
				continue
			}
			buf = append(buf, 4, b2b(c.Vals[i]))
		default:
			v := col.Get(i)
			switch {
			case v.Null:
				buf = append(buf, 0)
			case v.T == types.Int64:
				buf = appendKeyInt(buf, v.I)
			case v.T == types.Float64:
				buf = appendKeyFloat(buf, v.F)
			case v.T == types.Varchar:
				buf = appendKeyString(buf, v.S)
			case v.T == types.Bool:
				buf = append(buf, 4, b2b(v.B))
			default:
				buf = append(buf, 5)
			}
		}
	}
	return buf
}

func appendKeyInt(buf []byte, v int64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], uint64(v))
	return append(append(buf, 1), tmp[:]...)
}

func appendKeyFloat(buf []byte, v float64) []byte {
	bits := math.Float64bits(v)
	if v != v {
		// All NaN payloads group together, as the reference's string-rendered
		// keys do. -0.0 and +0.0 stay distinct, also like the reference.
		bits = math.Float64bits(math.NaN())
	}
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], bits)
	return append(append(buf, 2), tmp[:]...)
}

func appendKeyString(buf []byte, v string) []byte {
	buf = append(buf, 3)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(v)))
	buf = append(buf, tmp[:n]...)
	return append(buf, v...)
}

func b2b(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// updateAgg runs aggregate j's loop over the rows sel of the batch being
// consumed, specialised by op and by the stored form of the vector it reads:
// a column's own, or the one its compiled expression built.
func (h *HashAgg) updateAgg(j int, sel, groupOf []int32) error {
	ae, accs, col := h.spec.Aggs[j], h.accs[j], h.argCols[j]
	if col == nil {
		// COUNT(*): every selected row counts, null or not.
		for _, g := range groupOf {
			accs[g].count++
		}
		return nil
	}
	if d, ok := col.(*storage.DictColumn); ok {
		// The dictionary's own typed loops, at the selected rows' codes.
		if h.codes == nil {
			h.codes = make([]int32, aggChunk)
		}
		codes := h.codes[:len(sel)]
		for k, i := range sel {
			codes[k] = d.Codes[i]
		}
		col, sel = d.Dict, codes
	}
	switch ae.Op {
	case AggCount:
		for k, i := range sel {
			if !col.IsNull(int(i)) {
				accs[groupOf[k]].count++
			}
		}
		return nil
	case AggSum, AggAvg:
		if addNumbers(accs, col, sel, groupOf) {
			return nil
		}
	}
	return updateAll(accs, col, sel, groupOf)
}

// addNumbers is SUM/AVG over a numeric column; false when the column's values
// take updateAll instead.
func addNumbers(accs []aggAcc, col storage.Column, sel, groupOf []int32) bool {
	switch c := col.(type) {
	case *storage.Float64Column:
		lo, dense := storage.IdentityRun(sel)
		switch {
		case c.Nulls != nil:
			for k, i := range sel {
				if !c.Nulls[i] {
					accs[groupOf[k]].addFloat(c.Vals[i])
				}
			}
		case dense:
			// A run from lo: row k is c.Vals[lo+k].
			for k, v := range c.Vals[lo : lo+len(sel)] {
				accs[groupOf[k]].addFloat(v)
			}
		default:
			for k, i := range sel {
				accs[groupOf[k]].addFloat(c.Vals[i])
			}
		}
	case *storage.Int64Column:
		for k, i := range sel {
			if c.Nulls == nil || !c.Nulls[i] {
				accs[groupOf[k]].addInt(c.Vals[i])
			}
		}
	default:
		return false
	}
	return true
}

// updateAll is the full update MIN/MAX need, per stored form.
func updateAll(accs []aggAcc, col storage.Column, sel, groupOf []int32) error {
	switch c := col.(type) {
	case *storage.Int64Column:
		for k, i := range sel {
			if c.Nulls == nil || !c.Nulls[i] {
				accs[groupOf[k]].updateInt(c.Vals[i])
			}
		}
	case *storage.Float64Column:
		for k, i := range sel {
			if c.Nulls == nil || !c.Nulls[i] {
				accs[groupOf[k]].updateFloat(c.Vals[i])
			}
		}
	case *storage.StringColumn:
		for k, i := range sel {
			if c.Nulls == nil || !c.Nulls[i] {
				accs[groupOf[k]].updateString(c.Vals[i])
			}
		}
	case *storage.BoolColumn:
		for k, i := range sel {
			if c.Nulls == nil || !c.Nulls[i] {
				accs[groupOf[k]].updateBool(c.Vals[i])
			}
		}
	default:
		return fmt.Errorf("vexec: no aggregate loop reads a %T vector", col)
	}
	return nil
}

// NumGroups returns the number of groups, in first-seen order — the same
// order the reference's insertion-ordered map produces.
func (h *HashAgg) NumGroups() int { return len(h.keys) }

// GroupKey returns group g's boxed key values (nil for the global group).
func (h *HashAgg) GroupKey(g int) []types.Value { return h.keys[g] }

// AggResult finalizes aggregate j of group g.
func (h *HashAgg) AggResult(g, j int) types.Value {
	return h.accs[j][g].result(h.spec.Aggs[j].Op, h.argT[j])
}

// Rows returns the number of selected input rows consumed.
func (h *HashAgg) Rows() int64 { return h.rows }

// FallbackRows returns how many of those rows an expression argument
// evaluated through the compiled evaluator's per-row value loop instead of a
// typed kernel (profiling: kernel-vs-fallback split).
func (h *HashAgg) FallbackRows() int64 { return h.fallbackRows }

// FastPath names the group-key strategy for profile output.
func (h *HashAgg) FastPath() string {
	switch {
	case len(h.spec.GroupCols) == 0:
		return "global"
	case h.ints != nil:
		return "int64"
	case h.strs != nil:
		return "varchar"
	default:
		return "generic"
	}
}
