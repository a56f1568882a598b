// Package storage implements the engine's columnar storage: typed column
// vectors, Read Optimized Storage (ROS) containers — every write lands as one —
// and the containers' delete vectors. A vector in memory is dense — a value
// slice and NULL flags of its column's type — or a join's dictionary codes
// (DictColumn); a container file chooses a light-weight encoding per column
// (plain, RLE, delta or dictionary) and decodes back to dense vectors. This mirrors the Vertica
// storage organization sketched in §2.1.1 of the paper; the details follow
// the C-Store lineage at the fidelity the connector experiments need.
package storage

import (
	"fmt"
	"slices"

	"vsfabric/internal/types"
)

// Column is an immutable typed vector of values with a null bitmap.
type Column interface {
	// Type returns the value type stored.
	Type() types.Type
	// Len returns the number of rows.
	Len() int
	// Get returns the value at row i.
	Get(i int) types.Value
	// IsNull reports whether row i is NULL.
	IsNull(i int) bool
}

// Int64Column stores 8-byte integers.
type Int64Column struct {
	Vals  []int64
	Nulls []bool // nil means no nulls

	// codes is Vals a byte a row, on the header of a column a container
	// keeps them for (coded), and nil on every other. It is set only on a
	// header nobody holds yet and never written after, so it always matches
	// Vals; a header made over the same vectors (a slice, a copy) has none.
	codes *smallCodes
}

// smallCodes is a small-span INTEGER vector in one byte a row: row i holds
// base + c[i], and every code is below CodeSpan.
type smallCodes struct {
	base int64
	c    []uint8
}

// Codes returns the column's one-byte codes and their base — row i holds
// base + int64(codes[i]), each code below CodeSpan — or nil codes when it
// has none. Only a container's column has them (CodeRows says which).
func (c *Int64Column) Codes() (base int64, codes []uint8) {
	if c.codes == nil {
		return 0, nil
	}
	return c.codes.base, c.codes.c
}

// Type implements Column.
func (c *Int64Column) Type() types.Type { return types.Int64 }

// Len implements Column.
func (c *Int64Column) Len() int { return len(c.Vals) }

// IsNull implements Column.
func (c *Int64Column) IsNull(i int) bool { return c.Nulls != nil && c.Nulls[i] }

// Get implements Column.
func (c *Int64Column) Get(i int) types.Value {
	if c.IsNull(i) {
		return types.NullValue(types.Int64)
	}
	return types.IntValue(c.Vals[i])
}

// Float64Column stores 8-byte floats.
type Float64Column struct {
	Vals  []float64
	Nulls []bool
}

// Type implements Column.
func (c *Float64Column) Type() types.Type { return types.Float64 }

// Len implements Column.
func (c *Float64Column) Len() int { return len(c.Vals) }

// IsNull implements Column.
func (c *Float64Column) IsNull(i int) bool { return c.Nulls != nil && c.Nulls[i] }

// Get implements Column.
func (c *Float64Column) Get(i int) types.Value {
	if c.IsNull(i) {
		return types.NullValue(types.Float64)
	}
	return types.FloatValue(c.Vals[i])
}

// StringColumn stores variable-length strings.
type StringColumn struct {
	Vals  []string
	Nulls []bool
}

// Type implements Column.
func (c *StringColumn) Type() types.Type { return types.Varchar }

// Len implements Column.
func (c *StringColumn) Len() int { return len(c.Vals) }

// IsNull implements Column.
func (c *StringColumn) IsNull(i int) bool { return c.Nulls != nil && c.Nulls[i] }

// Get implements Column.
func (c *StringColumn) Get(i int) types.Value {
	if c.IsNull(i) {
		return types.NullValue(types.Varchar)
	}
	return types.StringValue(c.Vals[i])
}

// BoolColumn stores booleans.
type BoolColumn struct {
	Vals  []bool
	Nulls []bool
}

// Type implements Column.
func (c *BoolColumn) Type() types.Type { return types.Bool }

// Len implements Column.
func (c *BoolColumn) Len() int { return len(c.Vals) }

// IsNull implements Column.
func (c *BoolColumn) IsNull(i int) bool { return c.Nulls != nil && c.Nulls[i] }

// Get implements Column.
func (c *BoolColumn) Get(i int) types.Value {
	if c.IsNull(i) {
		return types.NullValue(types.Bool)
	}
	return types.BoolValue(c.Vals[i])
}

// DictColumn stores a vector as codes into a dictionary: row i holds Dict's
// value at Codes[i]. A join carries its build side this way — Dict is the build
// side's column gathered once, Codes one build row per output row, shared by
// every build column of the step — so no build value is copied per matched
// row. It is one level deep: Dict is a dense vector, and every code indexes
// it, a row no selection lists included.
type DictColumn struct {
	Codes []int32
	Dict  Column
}

// Type implements Column.
func (c *DictColumn) Type() types.Type { return c.Dict.Type() }

// Len implements Column.
func (c *DictColumn) Len() int { return len(c.Codes) }

// IsNull implements Column.
func (c *DictColumn) IsNull(i int) bool { return c.Dict.IsNull(int(c.Codes[i])) }

// Get implements Column.
func (c *DictColumn) Get(i int) types.Value { return c.Dict.Get(int(c.Codes[i])) }

// Densify converts a join's dictionary-coded column to its dense
// representation; dense columns pass through unchanged. Serialization and
// other paths that type-switch on the dense column set call this first.
func Densify(c Column) Column {
	if col, ok := c.(*DictColumn); ok {
		return takeDense(col.Dict, col.Codes)
	}
	return c
}

// takeDense returns the values of the dense vector c at idx, in that order, as
// a dense vector of its kind, NULL flags nil when none of them is NULL.
func takeDense(c Column, idx []int32) Column {
	var nulls []bool
	if src := nullsOf(c); src != nil {
		if nulls = appendSel(nil, src, idx); !slices.Contains(nulls, true) {
			nulls = nil
		}
	}
	switch c := c.(type) {
	case *Int64Column:
		return &Int64Column{Vals: appendSel(nil, c.Vals, idx), Nulls: nulls}
	case *Float64Column:
		return &Float64Column{Vals: appendSel(nil, c.Vals, idx), Nulls: nulls}
	case *StringColumn:
		return &StringColumn{Vals: appendSel(nil, c.Vals, idx), Nulls: nulls}
	case *BoolColumn:
		return &BoolColumn{Vals: appendSel(nil, c.Vals, idx), Nulls: nulls}
	}
	panic(fmt.Sprintf("storage: %T is not a dense vector", c))
}

// sliceDense returns rows [lo, hi) of c as a vector of its kind sharing c's
// arrays, capped at hi so nothing appended to it reaches c's later rows; NULL
// flags nil when none of those rows is NULL.
func sliceDense(c Column, lo, hi int) Column {
	c = Densify(c)
	var nulls []bool
	if src := nullsOf(c); src != nil && slices.Contains(src[lo:hi], true) {
		nulls = src[lo:hi:hi]
	}
	switch c := c.(type) {
	case *Int64Column:
		return &Int64Column{Vals: c.Vals[lo:hi:hi], Nulls: nulls}
	case *Float64Column:
		return &Float64Column{Vals: c.Vals[lo:hi:hi], Nulls: nulls}
	case *StringColumn:
		return &StringColumn{Vals: c.Vals[lo:hi:hi], Nulls: nulls}
	case *BoolColumn:
		return &BoolColumn{Vals: c.Vals[lo:hi:hi], Nulls: nulls}
	}
	panic(fmt.Sprintf("storage: %T is not a dense vector", c))
}

// Builder accumulates values of one type and produces an immutable Column.
// It holds no NULL flags until the first NULL arrives, so a vector with no
// NULL never allocates them.
type Builder struct {
	t      types.Type
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	nulls  []bool // nil until the first NULL, then one flag per value
}

// NewBuilder returns a builder for type t.
func NewBuilder(t types.Type) *Builder { return &Builder{t: t} }

// Grow reserves room for n more values, so a caller that knows its row count
// appends without regrowing the vectors.
func (b *Builder) Grow(n int) {
	switch b.t {
	case types.Int64:
		b.ints = slices.Grow(b.ints, n)
	case types.Float64:
		b.floats = slices.Grow(b.floats, n)
	case types.Varchar:
		b.strs = slices.Grow(b.strs, n)
	case types.Bool:
		b.bools = slices.Grow(b.bools, n)
	}
}

// Append adds one value. A value of another kind than the builder's meets the
// column by types.Coerce — the one strict rule — so a senseless one (a VARCHAR
// for a FLOAT column) is an error and the column holds only its own type.
func (b *Builder) Append(v types.Value) error {
	if !v.Null && v.T != b.t {
		var err error
		if v, err = types.Coerce(v, b.t); err != nil {
			return fmt.Errorf("storage: %w", err)
		}
	}
	lo := b.Len()
	switch b.t {
	case types.Int64:
		b.ints = append(b.ints, v.I)
	case types.Float64:
		b.floats = append(b.floats, v.F)
	case types.Varchar:
		b.strs = append(b.strs, v.S)
	case types.Bool:
		b.bools = append(b.bools, v.B)
	default:
		return fmt.Errorf("storage: unsupported column type %v", b.t)
	}
	if v.Null && b.nulls == nil {
		b.nulls = make([]bool, lo, lo+1)
	}
	if b.nulls != nil {
		b.nulls = append(b.nulls, v.Null)
	}
	return nil
}

// AppendColumn appends the rows of c that sel lists, in that order, a vector
// at a time, without boxing a value. c must be of the builder's type, dense
// or a join's codes.
func (b *Builder) AppendColumn(c Column, sel []int32) error {
	if c.Type() != b.t {
		return fmt.Errorf("storage: appending %v column to %v column", c.Type(), b.t)
	}
	c = Densify(c)
	lo := b.Len()
	switch c := c.(type) {
	case *Int64Column:
		b.ints = appendSel(b.ints, c.Vals, sel)
	case *Float64Column:
		b.floats = appendSel(b.floats, c.Vals, sel)
	case *StringColumn:
		b.strs = appendSel(b.strs, c.Vals, sel)
	case *BoolColumn:
		b.bools = appendSel(b.bools, c.Vals, sel)
	default:
		return fmt.Errorf("storage: unsupported column kind %T", c)
	}
	src := nullsOf(c)
	if b.nulls == nil && src != nil && slices.ContainsFunc(sel, func(i int32) bool { return src[i] }) {
		b.nulls = make([]bool, lo, lo+len(sel))
	}
	switch {
	case b.nulls == nil:
	case src == nil:
		b.nulls = append(b.nulls, make([]bool, len(sel))...)
	default:
		b.nulls = appendSel(b.nulls, src, sel)
	}
	return nil
}

// appendSel appends src's values at sel to dst.
func appendSel[T any](dst, src []T, sel []int32) []T {
	lo := len(dst)
	dst = slices.Grow(dst, len(sel))[:lo+len(sel)]
	for k, i := range sel {
		dst[lo+k] = src[i]
	}
	return dst
}

// Len returns the number of values appended so far.
func (b *Builder) Len() int {
	switch b.t {
	case types.Int64:
		return len(b.ints)
	case types.Float64:
		return len(b.floats)
	case types.Varchar:
		return len(b.strs)
	case types.Bool:
		return len(b.bools)
	}
	return 0
}

// Build returns the immutable column. The builder must not be reused.
func (b *Builder) Build() Column {
	switch b.t {
	case types.Int64:
		return &Int64Column{Vals: b.ints, Nulls: b.nulls}
	case types.Float64:
		return &Float64Column{Vals: b.floats, Nulls: b.nulls}
	case types.Varchar:
		return &StringColumn{Vals: b.strs, Nulls: b.nulls}
	case types.Bool:
		return &BoolColumn{Vals: b.bools, Nulls: b.nulls}
	default:
		panic(fmt.Sprintf("storage: unsupported column type %v", b.t))
	}
}

// ColumnsFromRows builds one column per schema column from a row slice.
func ColumnsFromRows(rows []types.Row, schema types.Schema) ([]Column, error) {
	builders := make([]*Builder, schema.NumCols())
	for i, c := range schema.Cols {
		builders[i] = NewBuilder(c.T)
	}
	for _, r := range rows {
		if len(r) != schema.NumCols() {
			return nil, fmt.Errorf("storage: row width %d != schema width %d", len(r), schema.NumCols())
		}
		for i, v := range r {
			if err := builders[i].Append(v); err != nil {
				return nil, err
			}
		}
	}
	cols := make([]Column, len(builders))
	for i, b := range builders {
		cols[i] = b.Build()
	}
	return cols, nil
}

// AppendROS builds a ROS container from rows stamped with the given epoch or
// provisional tag and adds it: AppendColumns for a caller that holds rows.
func (s *Store) AppendROS(rows []types.Row, tag uint64) error {
	cols, err := ColumnsFromRows(rows, s.schema)
	if err != nil {
		return err
	}
	return s.AppendColumns(cols, HashColumns(cols, s.segIdx, len(rows)), tag, nil)
}
