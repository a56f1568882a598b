// Package types defines the value model shared by every component of the
// fabric: column types, nullable values, rows, and schemas. It is the common
// currency between the Vertica engine, the Spark engine, the connector, and
// the codecs (CSV, Avro, the storage row block).
package types

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type identifies the storage type of a column. The set mirrors the types the
// paper's experiments exercise: 8-byte floats (dataset D1), 8-byte integers
// and VARCHAR (dataset D2), plus BOOLEAN which the S2V status tables need.
type Type uint8

const (
	Unknown Type = iota
	Int64        // 8-byte signed integer (Vertica INTEGER / Spark LongType)
	Float64      // 8-byte IEEE float (Vertica FLOAT / Spark DoubleType)
	Varchar      // variable-length string (Vertica VARCHAR / Spark StringType)
	Bool         // boolean (Vertica BOOLEAN / Spark BooleanType)
)

// String returns the SQL name of the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "INTEGER"
	case Float64:
		return "FLOAT"
	case Varchar:
		return "VARCHAR"
	case Bool:
		return "BOOLEAN"
	default:
		return "UNKNOWN"
	}
}

// ParseType parses a SQL type name (optionally with a length suffix such as
// VARCHAR(80)) into a Type.
func ParseType(s string) (Type, error) {
	u := strings.ToUpper(strings.TrimSpace(s))
	if i := strings.IndexByte(u, '('); i >= 0 {
		u = u[:i]
	}
	switch u {
	case "INTEGER", "INT", "BIGINT", "LONG":
		return Int64, nil
	case "FLOAT", "DOUBLE", "DOUBLE PRECISION", "NUMERIC", "REAL":
		return Float64, nil
	case "VARCHAR", "STRING", "CHAR", "TEXT":
		return Varchar, nil
	case "BOOLEAN", "BOOL":
		return Bool, nil
	default:
		return Unknown, fmt.Errorf("types: unknown type %q", s)
	}
}

// Value is a nullable scalar. It is a flat struct (no interface boxing) so
// that rows can be processed in tight loops without allocation. The field
// order packs the three one-byte fields into one word: 40 bytes, not 56.
type Value struct {
	S    string
	I    int64
	F    float64
	T    Type
	Null bool
	B    bool
}

// NullValue returns the NULL value of type t.
func NullValue(t Type) Value { return Value{T: t, Null: true} }

// IntValue returns an INTEGER value.
func IntValue(v int64) Value { return Value{T: Int64, I: v} }

// FloatValue returns a FLOAT value.
func FloatValue(v float64) Value { return Value{T: Float64, F: v} }

// StringValue returns a VARCHAR value.
func StringValue(v string) Value { return Value{T: Varchar, S: v} }

// BoolValue returns a BOOLEAN value.
func BoolValue(v bool) Value { return Value{T: Bool, B: v} }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.Null }

// AsFloat converts numeric values to float64; NULL converts to NaN.
func (v Value) AsFloat() float64 {
	if v.Null {
		return math.NaN()
	}
	switch v.T {
	case Int64:
		return float64(v.I)
	case Float64:
		return v.F
	case Bool:
		if v.B {
			return 1
		}
		return 0
	default:
		f, err := strconv.ParseFloat(v.S, 64)
		if err != nil {
			return math.NaN()
		}
		return f
	}
}

// AsInt converts numeric values to int64 (truncating floats).
func (v Value) AsInt() int64 {
	if v.Null {
		return 0
	}
	switch v.T {
	case Int64:
		return v.I
	case Float64:
		return int64(v.F)
	case Bool:
		if v.B {
			return 1
		}
		return 0
	default:
		n, _ := strconv.ParseInt(v.S, 10, 64)
		return n
	}
}

// AsBool converts the value to a boolean.
func (v Value) AsBool() bool {
	if v.Null {
		return false
	}
	switch v.T {
	case Bool:
		return v.B
	case Int64:
		return v.I != 0
	case Float64:
		return v.F != 0
	default:
		b, _ := strconv.ParseBool(v.S)
		return b
	}
}

// String renders the value in SQL-literal-ish form; NULL renders as "NULL".
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.T {
	case Int64:
		return strconv.FormatInt(v.I, 10)
	case Float64:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case Varchar:
		return v.S
	case Bool:
		if v.B {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// SQLLiteral renders the value as a literal the SQL parser reads back: NULL,
// a quoted string, or String's form — for a FLOAT with a fraction or an
// exponent, so a whole one reads back a FLOAT, not an INTEGER.
func (v Value) SQLLiteral() string {
	s := v.String()
	switch {
	case !v.Null && v.T == Varchar:
		return "'" + SQLEscape(v.S) + "'"
	case !v.Null && v.T == Float64 && !strings.ContainsAny(s, ".eIN"):
		return s + ".0"
	}
	return s
}

// SQLEscape doubles the single quotes of s, for splicing between the quotes
// of a SQL string literal.
func SQLEscape(s string) string { return strings.ReplaceAll(s, "'", "''") }

// Compare orders two values: NULLs sort first; numeric types compare
// numerically across Int64/Float64, two Int64s exactly (as float64 they tie
// past 2^53); strings lexically; bools false<true. It panics only on
// incomparable type combinations, which the planner rules out before
// execution.
func Compare(a, b Value) int {
	switch {
	case a.Null && b.Null:
		return 0
	case a.Null:
		return -1
	case b.Null:
		return 1
	}
	if a.T == Varchar || b.T == Varchar {
		return strings.Compare(a.S, b.S)
	}
	if a.T == Bool && b.T == Bool {
		switch {
		case a.B == b.B:
			return 0
		case b.B:
			return -1
		default:
			return 1
		}
	}
	if a.T == Int64 && b.T == Int64 {
		return cmp.Compare(a.I, b.I)
	}
	af, bf := a.AsFloat(), b.AsFloat()
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	default:
		return 0
	}
}

// Equal reports whether two values are equal under Compare semantics, with
// NULL equal only to NULL.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Coerce is the one rule for how a value meets a column of type t: a NULL
// takes the column's type, an INTEGER widens to FLOAT, a FLOAT that holds a
// whole number narrows to INTEGER, anything renders into VARCHAR, and every
// other mismatch is an error — never a silent NaN or zero. INSERT VALUES,
// UPDATE SET, a function's declared return type and every operator that builds
// a result vector apply it.
func Coerce(v Value, t Type) (Value, error) {
	if v.Null {
		return NullValue(t), nil
	}
	if v.T == t {
		return v, nil
	}
	switch t {
	case Float64:
		if v.T == Int64 {
			return FloatValue(float64(v.I)), nil
		}
	case Int64:
		if v.T == Float64 && v.F == float64(int64(v.F)) {
			return IntValue(int64(v.F)), nil
		}
	case Varchar:
		return StringValue(v.String()), nil
	}
	return Value{}, fmt.Errorf("cannot coerce %v value %s to %v", v.T, v, t)
}

// Row is one tuple of values, positionally aligned with a Schema.
type Row []Value

// Clone returns a deep copy of the row (Values are value types, so a slice
// copy suffices).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Column describes one column of a schema.
type Column struct {
	Name string
	T    Type
}

// Schema is an ordered list of named, typed columns.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from (name, type) pairs.
func NewSchema(cols ...Column) Schema { return Schema{Cols: cols} }

// NumCols returns the number of columns.
func (s Schema) NumCols() int { return len(s.Cols) }

// ColIndex returns the position of the named column (case-insensitive), or
// -1. Qualified references resolve against unqualified columns and vice
// versa: "u.name" matches a column "name", and "name" matches a column
// "u.name" (joins qualify their output columns); exact matches win.
func (s Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		suffix := name[i+1:]
		for j, c := range s.Cols {
			if strings.EqualFold(c.Name, suffix) {
				return j
			}
		}
		return -1
	}
	for j, c := range s.Cols {
		if k := strings.LastIndexByte(c.Name, '.'); k >= 0 && strings.EqualFold(c.Name[k+1:], name) {
			return j
		}
	}
	return -1
}

// ColNames returns the column names in order.
func (s Schema) ColNames() []string {
	out := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = c.Name
	}
	return out
}

// Project returns a schema containing only the named columns, in the given
// order. Unknown names are an error.
func (s Schema) Project(names []string) (Schema, []int, error) {
	out := Schema{Cols: make([]Column, 0, len(names))}
	idx := make([]int, 0, len(names))
	for _, n := range names {
		i := s.ColIndex(n)
		if i < 0 {
			return Schema{}, nil, fmt.Errorf("types: no column %q in schema", n)
		}
		out.Cols = append(out.Cols, s.Cols[i])
		idx = append(idx, i)
	}
	return out, idx, nil
}

// Equal reports whether two schemas have identical names (case-insensitive)
// and types in the same order.
func (s Schema) Equal(o Schema) bool {
	if len(s.Cols) != len(o.Cols) {
		return false
	}
	for i := range s.Cols {
		if !strings.EqualFold(s.Cols[i].Name, o.Cols[i].Name) || s.Cols[i].T != o.Cols[i].T {
			return false
		}
	}
	return true
}

// String renders the schema as "(a INTEGER, b FLOAT)".
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.T.String())
	}
	b.WriteByte(')')
	return b.String()
}

// WireSize returns an estimate of the serialized size of a row in bytes,
// used by the resource recorder to account network transfer volumes.
func WireSize(r Row) int {
	n := 0
	for _, v := range r {
		switch v.T {
		case Int64, Float64:
			n += 8
		case Bool:
			n++
		case Varchar:
			n += 4 + len(v.S)
		}
	}
	return n
}
