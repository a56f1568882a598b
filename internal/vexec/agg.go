package vexec

import (
	"encoding/binary"
	"math"
	"slices"

	"vsfabric/internal/expr"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

// This file implements vectorized hash aggregation over storage.Batch: group
// keys are resolved batch-at-a-time into dense group ordinals (an
// open-addressing table keyed by raw int64 for the single-int64-key fast
// path, run-at-a-time for RLE group columns, a byte-encoded key map
// otherwise), then each aggregate updates its typed accumulators in a tight
// per-column loop — values are boxed into types.Value only once per new
// group, never per input row. An aggregate whose argument is an expression
// rather than a column evaluates it per selected row and feeds the same
// accumulators through the boxed fallback. Accumulator semantics are SQL's as
// the test oracle's row-at-a-time reference states them (null handling,
// int-vs-float SUM typing, first-seen MIN/MAX ties, AVG = float sum / non-null
// count), and the equivalence property suites diff the two.

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
// is set — over Arg evaluated against each selected row. Col < 0 with no Arg
// means COUNT(*) (count every selected row, null or not).
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

// aggAcc is one (group, aggregate) accumulator. kind records the concrete
// type of the first non-null value so MIN/MAX finalize to the input type,
// exactly as the reference keeps typed values.
type aggAcc struct {
	count  int64
	sumF   float64
	sumI   int64
	intSum bool
	seen   bool
	kind   byte // 'i', 'f', 's', 'b'

	minI, maxI int64
	minF, maxF float64
	minS, maxS string
	minB, maxB bool
}

func (a *aggAcc) updateInt(v int64) {
	a.count++
	a.sumF += float64(v)
	if !a.seen {
		a.seen = true
		a.kind = 'i'
		a.intSum = true
		a.sumI = v
		a.minI, a.maxI = v, v
		return
	}
	a.sumI += v
	if v < a.minI {
		a.minI = v
	}
	if v > a.maxI {
		a.maxI = v
	}
}

func (a *aggAcc) updateFloat(v float64) {
	a.count++
	a.sumF += v
	if !a.seen {
		a.seen = true
		a.kind = 'f'
		a.minF, a.maxF = v, v
		return
	}
	a.intSum = false
	// Strict comparisons: a NaN bound is never displaced and a NaN value
	// never displaces, matching types.Compare's unordered-NaN behavior.
	if v < a.minF {
		a.minF = v
	}
	if v > a.maxF {
		a.maxF = v
	}
}

func (a *aggAcc) updateString(v string) {
	a.count++
	// The reference sums v.AsFloat() for every non-null value, which parses
	// varchars (NaN when unparsable); keep that — odd — behavior.
	a.sumF += types.Value{T: types.Varchar, S: v}.AsFloat()
	if !a.seen {
		a.seen = true
		a.kind = 's'
		a.minS, a.maxS = v, v
		return
	}
	a.intSum = false
	if v < a.minS {
		a.minS = v
	}
	if v > a.maxS {
		a.maxS = v
	}
}

func (a *aggAcc) updateBool(v bool) {
	a.count++
	if v {
		a.sumF++
	}
	if !a.seen {
		a.seen = true
		a.kind = 'b'
		a.minB, a.maxB = v, v
		return
	}
	a.intSum = false
	if !v {
		a.minB = false // false < true
	}
	if v {
		a.maxB = true
	}
}

// updateValue is the boxed fallback: an interpreted argument's values, or a
// batch column whose concrete type doesn't match any typed loop (stored-type
// drift). An expression can yield INTEGER for one row and FLOAT for another;
// the accumulator then carries on in float, as types.Compare would order them.
func (a *aggAcc) updateValue(v types.Value) {
	if v.Null {
		return
	}
	switch v.T {
	case types.Int64:
		if a.kind == 'f' {
			a.updateFloat(float64(v.I))
			return
		}
		a.updateInt(v.I)
	case types.Float64:
		if a.kind == 'i' {
			a.kind, a.minF, a.maxF = 'f', float64(a.minI), float64(a.maxI)
		}
		a.updateFloat(v.F)
	case types.Varchar:
		a.updateString(v.S)
	case types.Bool:
		a.updateBool(v.B)
	}
}

func (a *aggAcc) result(op AggOp) types.Value {
	switch op {
	case AggCount:
		return types.IntValue(a.count)
	case AggSum:
		if !a.seen {
			return types.NullValue(types.Float64)
		}
		if a.intSum {
			return types.IntValue(a.sumI)
		}
		return types.FloatValue(a.sumF)
	case AggAvg:
		if a.count == 0 {
			return types.NullValue(types.Float64)
		}
		return types.FloatValue(a.sumF / float64(a.count))
	case AggMin:
		return a.minmax(true)
	case AggMax:
		return a.minmax(false)
	}
	return types.NullValue(types.Float64)
}

func (a *aggAcc) minmax(wantMin bool) types.Value {
	if !a.seen {
		return types.NullValue(types.Float64)
	}
	switch a.kind {
	case 'i':
		if wantMin {
			return types.IntValue(a.minI)
		}
		return types.IntValue(a.maxI)
	case 'f':
		if wantMin {
			return types.FloatValue(a.minF)
		}
		return types.FloatValue(a.maxF)
	case 's':
		if wantMin {
			return types.StringValue(a.minS)
		}
		return types.StringValue(a.maxS)
	case 'b':
		if wantMin {
			return types.BoolValue(a.minB)
		}
		return types.BoolValue(a.maxB)
	}
	return types.NullValue(types.Float64)
}

// ArgRow is how interpreted expressions read a batch: one full-width row,
// reused for every input row, into which only the columns the expressions name
// are boxed. Aggregate arguments and a computed select list both evaluate
// through it.
type ArgRow struct {
	cols []int
	row  types.Row
}

// NewArgRow prepares the row for exprs over batches of the given schema.
func NewArgRow(exprs []expr.Expr, schema types.Schema) *ArgRow {
	var names []string
	wholeRow := false
	for _, e := range exprs {
		names = e.Columns(names)
		wholeRow = wholeRow || expr.ReadsRow(e)
	}
	a := &ArgRow{row: make(types.Row, len(schema.Cols))}
	for c := range schema.Cols {
		if wholeRow || slices.ContainsFunc(names, func(n string) bool { return schema.ColIndex(n) == c }) {
			a.cols = append(a.cols, c)
		}
	}
	return a
}

// Load boxes physical row i of b into the row and returns it; the row is
// overwritten by the next Load.
func (a *ArgRow) Load(b *storage.Batch, i int) types.Row {
	for _, c := range a.cols {
		a.row[c] = b.Cols[c].Get(i)
	}
	return a.row
}

// HashAgg is a single-pass vectorized hash aggregator. It is used by a single
// goroutine: parallel segment scans feed batches to a coordinator that calls
// Consume in deterministic segment order, which keeps float SUM/AVG
// accumulation order identical to the sequential reference path.
type HashAgg struct {
	spec  AggSpec
	nAggs int

	// Single-int64-group-key fast path: an open-addressing table of group
	// ordinals (+1; 0 = empty slot) probed with the raw key, no boxing.
	fastInt      bool
	table        []int32
	mask         uint64
	intKeys      []int64 // group ordinal -> raw key (undefined for the null group)
	nullGrp      int32   // ordinal of the NULL-key group, -1 until seen
	allCountStar bool    // every aggregate is COUNT(*): enables run-counting on RLE keys

	byKey map[string]int32 // general path: byte-encoded key -> group ordinal

	keys []([]types.Value) // group ordinal -> boxed key values, first-seen order
	accs []aggAcc          // (group ordinal * nAggs + agg index)

	groupBuf []int32
	keyBuf   []byte

	// Interpreted arguments: the aggregates that carry one, and the row their
	// columns are boxed into, once per input row for all of them.
	argAggs []int
	args    *ArgRow

	rows         int64 // selected rows consumed
	fallbackRows int64 // rows that went through a boxed fallback loop
	boxed        bool  // the batch being consumed took a boxed loop
}

// NewHashAgg builds an aggregator for one query. schema is the batch schema
// the spec's column indexes refer to.
func NewHashAgg(spec AggSpec, schema types.Schema) *HashAgg {
	h := &HashAgg{spec: spec, nAggs: len(spec.Aggs), nullGrp: -1}
	h.fastInt = len(spec.GroupCols) == 1 &&
		spec.GroupCols[0] < len(schema.Cols) &&
		schema.Cols[spec.GroupCols[0]].T == types.Int64
	if h.fastInt {
		h.table = make([]int32, 64)
		h.mask = 63
	} else if len(spec.GroupCols) > 0 {
		h.byKey = make(map[string]int32)
	}
	h.allCountStar = len(spec.Aggs) > 0
	var args []expr.Expr
	for j, a := range spec.Aggs {
		if a.Op != AggCount || a.Col >= 0 || a.Arg != nil {
			h.allCountStar = false
		}
		if a.Arg != nil {
			h.argAggs = append(h.argAggs, j)
			args = append(args, a.Arg)
		}
	}
	if h.argAggs != nil {
		h.args = NewArgRow(args, schema)
	}
	if len(spec.GroupCols) == 0 {
		// A global aggregate over zero rows still yields one row.
		h.newGroup(nil, 0)
	}
	return h
}

func (h *HashAgg) newGroup(keyVals []types.Value, intKey int64) int32 {
	g := int32(len(h.keys))
	h.keys = append(h.keys, keyVals)
	h.intKeys = append(h.intKeys, intKey)
	h.accs = append(h.accs, make([]aggAcc, h.nAggs)...)
	return g
}

func hashInt(k int64) uint64 {
	h := uint64(k) * 0x9E3779B97F4A7C15
	return h ^ (h >> 29)
}

// lookupInt returns the group ordinal for an int64 key, creating the group on
// first sight. Load is kept under 2/3 by doubling.
func (h *HashAgg) lookupInt(k int64) int32 {
	i := hashInt(k) & h.mask
	for {
		s := h.table[i]
		if s == 0 {
			g := h.newGroup([]types.Value{types.IntValue(k)}, k)
			h.table[i] = g + 1
			if uint64(len(h.keys))*3 >= (h.mask+1)*2 {
				h.growTable()
			}
			return g
		}
		if h.intKeys[s-1] == k {
			return s - 1
		}
		i = (i + 1) & h.mask
	}
}

func (h *HashAgg) growTable() {
	n := (h.mask + 1) * 2
	h.table = make([]int32, n)
	h.mask = n - 1
	for g, k := range h.intKeys {
		if int32(g) == h.nullGrp {
			continue
		}
		i := hashInt(k) & h.mask
		for h.table[i] != 0 {
			i = (i + 1) & h.mask
		}
		h.table[i] = int32(g) + 1
	}
}

func (h *HashAgg) nullGroup() int32 {
	if h.nullGrp < 0 {
		h.nullGrp = h.newGroup([]types.Value{types.NullValue(types.Int64)}, 0)
	}
	return h.nullGrp
}

// Consume folds one filtered batch into the aggregation state. Only an
// interpreted aggregate argument can fail.
func (h *HashAgg) Consume(b *storage.Batch) error {
	n := len(b.Sel)
	if n == 0 {
		return nil
	}
	h.rows += int64(n)
	if h.fastInt && h.allCountStar {
		if col, ok := b.Cols[h.spec.GroupCols[0]].(*storage.Int64RLEColumn); ok {
			// Popcount-style COUNT over an RLE group key: one table probe and
			// one addition per (run, sel-range) instead of per row.
			h.consumeRLECounts(col, b.Sel)
			return nil
		}
	}
	groupOf := h.groupBuf
	if cap(groupOf) < n {
		groupOf = make([]int32, n)
	}
	groupOf = groupOf[:n]
	h.groupBuf = groupOf
	h.resolveGroups(b, groupOf)
	for j := range h.spec.Aggs {
		h.updateAgg(b, j, groupOf)
	}
	if err := h.updateInterpreted(b, groupOf); err != nil {
		return err
	}
	if h.boxed {
		h.fallbackRows, h.boxed = h.fallbackRows+int64(n), false
	}
	return nil
}

func (h *HashAgg) consumeRLECounts(col *storage.Int64RLEColumn, sel []int32) {
	run := 0
	end := int32(-1)
	var g int32
	var pending int64
	flush := func() {
		if pending == 0 {
			return
		}
		base := int(g) * h.nAggs
		for j := 0; j < h.nAggs; j++ {
			h.accs[base+j].count += pending
		}
		pending = 0
	}
	for _, i := range sel {
		if i >= end {
			flush()
			for run < len(col.RunEnds) && i >= col.RunEnds[run] {
				run++
			}
			end = col.RunEnds[run]
			g = h.lookupInt(col.RunVals[run])
		}
		pending++
	}
	flush()
}

// resolveGroups fills groupOf[k] with the group ordinal of selected row k.
func (h *HashAgg) resolveGroups(b *storage.Batch, groupOf []int32) {
	if len(h.spec.GroupCols) == 0 {
		for k := range groupOf {
			groupOf[k] = 0
		}
		return
	}
	if h.fastInt {
		gc := h.spec.GroupCols[0]
		switch col := b.Cols[gc].(type) {
		case *storage.Int64Column:
			if col.Nulls == nil {
				for k, i := range b.Sel {
					groupOf[k] = h.lookupInt(col.Vals[i])
				}
			} else {
				for k, i := range b.Sel {
					if col.Nulls[i] {
						groupOf[k] = h.nullGroup()
					} else {
						groupOf[k] = h.lookupInt(col.Vals[i])
					}
				}
			}
		case *storage.Int64RLEColumn:
			// Run-at-a-time: one table probe per run boundary, not per row.
			run := 0
			end := int32(-1)
			var g int32
			for k, i := range b.Sel {
				if i >= end {
					for run < len(col.RunEnds) && i >= col.RunEnds[run] {
						run++
					}
					end = col.RunEnds[run]
					g = h.lookupInt(col.RunVals[run])
				}
				groupOf[k] = g
			}
		default:
			// Stored-type drift on a schema-int column: box, but keep the
			// int key table so equal keys still land in one group.
			h.boxed = true
			for k, i := range b.Sel {
				v := b.Cols[gc].Get(int(i))
				if v.Null {
					groupOf[k] = h.nullGroup()
				} else {
					groupOf[k] = h.lookupInt(v.AsInt())
				}
			}
		}
		return
	}
	h.resolveGeneric(b, groupOf)
}

// resolveGeneric handles multi-column and non-int group keys by encoding each
// key into a compact byte string (type-tagged, length-prefixed — no separator
// ambiguity, NULL distinct from any value) and interning it in a map.
func (h *HashAgg) resolveGeneric(b *storage.Batch, groupOf []int32) {
	buf := h.keyBuf
	for k, i := range b.Sel {
		buf = h.appendKey(buf[:0], b, int(i))
		g, ok := h.byKey[string(buf)]
		if !ok {
			vals := make([]types.Value, len(h.spec.GroupCols))
			for x, gc := range h.spec.GroupCols {
				vals[x] = b.Cols[gc].Get(int(i))
			}
			g = h.newGroup(vals, 0)
			h.byKey[string(buf)] = g
		}
		groupOf[k] = g
	}
	h.keyBuf = buf
}

func (h *HashAgg) appendKey(buf []byte, b *storage.Batch, i int) []byte {
	for _, gc := range h.spec.GroupCols {
		col := b.Cols[gc]
		switch c := col.(type) {
		case *storage.Int64Column:
			if c.Nulls != nil && c.Nulls[i] {
				buf = append(buf, 0)
				continue
			}
			buf = appendKeyInt(buf, c.Vals[i])
		case *storage.Int64RLEColumn:
			buf = appendKeyInt(buf, c.RunVals[c.RunOf(i)])
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

// updateInterpreted feeds the aggregates whose argument is an expression:
// each selected row boxes the columns those expressions read, once, and every
// such aggregate evaluates against it.
func (h *HashAgg) updateInterpreted(b *storage.Batch, groupOf []int32) error {
	if h.argAggs == nil {
		return nil
	}
	h.boxed = true
	for k, i := range b.Sel {
		row := h.args.Load(b, int(i))
		for _, j := range h.argAggs {
			v, err := h.spec.Aggs[j].Arg.Eval(row, &b.Schema)
			if err != nil {
				return err
			}
			h.accs[int(groupOf[k])*h.nAggs+j].updateValue(v)
		}
	}
	return nil
}

// updateAgg runs aggregate j's typed update loop over the batch; an
// interpreted argument is updateInterpreted's.
func (h *HashAgg) updateAgg(b *storage.Batch, j int, groupOf []int32) {
	ae := h.spec.Aggs[j]
	if ae.Arg != nil {
		return
	}
	if ae.Col < 0 {
		// COUNT(*): every selected row counts, null or not.
		for k := range b.Sel {
			h.accs[int(groupOf[k])*h.nAggs+j].count++
		}
		return
	}
	switch col := b.Cols[ae.Col].(type) {
	case *storage.Int64Column:
		if col.Nulls == nil {
			for k, i := range b.Sel {
				h.accs[int(groupOf[k])*h.nAggs+j].updateInt(col.Vals[i])
			}
		} else {
			for k, i := range b.Sel {
				if !col.Nulls[i] {
					h.accs[int(groupOf[k])*h.nAggs+j].updateInt(col.Vals[i])
				}
			}
		}
	case *storage.Int64RLEColumn:
		run := 0
		end := int32(-1)
		var v int64
		for k, i := range b.Sel {
			if i >= end {
				for run < len(col.RunEnds) && i >= col.RunEnds[run] {
					run++
				}
				end = col.RunEnds[run]
				v = col.RunVals[run]
			}
			h.accs[int(groupOf[k])*h.nAggs+j].updateInt(v)
		}
	case *storage.Float64Column:
		for k, i := range b.Sel {
			if col.Nulls != nil && col.Nulls[i] {
				continue
			}
			h.accs[int(groupOf[k])*h.nAggs+j].updateFloat(col.Vals[i])
		}
	case *storage.StringColumn:
		for k, i := range b.Sel {
			if col.Nulls != nil && col.Nulls[i] {
				continue
			}
			h.accs[int(groupOf[k])*h.nAggs+j].updateString(col.Vals[i])
		}
	case *storage.BoolColumn:
		for k, i := range b.Sel {
			if col.Nulls != nil && col.Nulls[i] {
				continue
			}
			h.accs[int(groupOf[k])*h.nAggs+j].updateBool(col.Vals[i])
		}
	default:
		h.boxed = true
		for k, i := range b.Sel {
			h.accs[int(groupOf[k])*h.nAggs+j].updateValue(col.Get(int(i)))
		}
	}
}

// NumGroups returns the number of groups, in first-seen order — the same
// order the reference's insertion-ordered map produces.
func (h *HashAgg) NumGroups() int { return len(h.keys) }

// GroupKey returns group g's boxed key values (nil for the global group).
func (h *HashAgg) GroupKey(g int) []types.Value { return h.keys[g] }

// AggResult finalizes aggregate j of group g.
func (h *HashAgg) AggResult(g, j int) types.Value {
	return h.accs[g*h.nAggs+j].result(h.spec.Aggs[j].Op)
}

// Rows returns the number of selected input rows consumed.
func (h *HashAgg) Rows() int64 { return h.rows }

// FallbackRows returns how many of those rows went through a boxed fallback
// loop instead of a typed kernel (profiling: kernel-vs-fallback split).
func (h *HashAgg) FallbackRows() int64 { return h.fallbackRows }

// FastPath names the group-key strategy for profile output.
func (h *HashAgg) FastPath() string {
	switch {
	case len(h.spec.GroupCols) == 0:
		return "global"
	case h.fastInt:
		return "int64"
	default:
		return "generic"
	}
}
