// Package expr defines the scalar expression AST shared by the SQL layer and
// the connector's pushdown machinery. Expressions evaluate against a row and
// its schema; the subset matches what Spark's External Data Source API can
// push down (column refs, literals, comparisons, boolean connectives, IS
// NULL) plus the engine-side builtins the connector's generated queries rely
// on: HASH(cols) for locality-aware range scans and MOD for synthetic hash
// partitioning of views (§3.1 of the paper).
package expr

import (
	"fmt"
	"strings"

	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

// Expr is a scalar expression evaluable against a row.
type Expr interface {
	// Eval evaluates the expression against row r described by schema s.
	Eval(r types.Row, s *types.Schema) (types.Value, error)
	// SQL renders the expression as SQL text accepted by the vsql parser.
	SQL() string
	// Columns appends the names of referenced columns to dst.
	Columns(dst []string) []string
}

// Col references a named column.
type Col struct{ Name string }

// Eval implements Expr.
func (c *Col) Eval(r types.Row, s *types.Schema) (types.Value, error) {
	i := s.ColIndex(c.Name)
	if i < 0 {
		return types.Value{}, fmt.Errorf("expr: unknown column %q", c.Name)
	}
	return r[i], nil
}

// SQL implements Expr.
func (c *Col) SQL() string { return c.Name }

// Columns implements Expr.
func (c *Col) Columns(dst []string) []string { return append(dst, c.Name) }

// Lit is a literal value.
type Lit struct{ V types.Value }

// Eval implements Expr.
func (l *Lit) Eval(types.Row, *types.Schema) (types.Value, error) { return l.V, nil }

// SQL implements Expr.
func (l *Lit) SQL() string { return l.V.SQLLiteral() }

// Columns implements Expr.
func (l *Lit) Columns(dst []string) []string { return dst }

// CmpOp is a comparison operator.
type CmpOp int

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (o CmpOp) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	}
	return "?"
}

// Cmp is a binary comparison. SQL three-valued logic applies: comparing with
// NULL yields NULL (represented as a NULL BOOLEAN value).
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval implements Expr.
func (c *Cmp) Eval(r types.Row, s *types.Schema) (types.Value, error) {
	lv, err := c.L.Eval(r, s)
	if err != nil {
		return types.Value{}, err
	}
	rv, err := c.R.Eval(r, s)
	if err != nil {
		return types.Value{}, err
	}
	if lv.Null || rv.Null {
		return types.NullValue(types.Bool), nil
	}
	n := types.Compare(lv, rv)
	var out bool
	switch c.Op {
	case EQ:
		out = n == 0
	case NE:
		out = n != 0
	case LT:
		out = n < 0
	case LE:
		out = n <= 0
	case GT:
		out = n > 0
	case GE:
		out = n >= 0
	}
	return types.BoolValue(out), nil
}

// SQL implements Expr.
func (c *Cmp) SQL() string {
	return fmt.Sprintf("%s %s %s", c.L.SQL(), c.Op, c.R.SQL())
}

// Columns implements Expr.
func (c *Cmp) Columns(dst []string) []string { return c.R.Columns(c.L.Columns(dst)) }

// And is logical conjunction with SQL three-valued logic.
type And struct{ L, R Expr }

// Eval implements Expr.
func (a *And) Eval(r types.Row, s *types.Schema) (types.Value, error) {
	lv, err := a.L.Eval(r, s)
	if err != nil {
		return types.Value{}, err
	}
	if !lv.Null && !lv.AsBool() {
		return types.BoolValue(false), nil
	}
	rv, err := a.R.Eval(r, s)
	if err != nil {
		return types.Value{}, err
	}
	if !rv.Null && !rv.AsBool() {
		return types.BoolValue(false), nil
	}
	if lv.Null || rv.Null {
		return types.NullValue(types.Bool), nil
	}
	return types.BoolValue(true), nil
}

// SQL implements Expr.
func (a *And) SQL() string { return fmt.Sprintf("(%s AND %s)", a.L.SQL(), a.R.SQL()) }

// Columns implements Expr.
func (a *And) Columns(dst []string) []string { return a.R.Columns(a.L.Columns(dst)) }

// Or is logical disjunction with SQL three-valued logic.
type Or struct{ L, R Expr }

// Eval implements Expr.
func (o *Or) Eval(r types.Row, s *types.Schema) (types.Value, error) {
	lv, err := o.L.Eval(r, s)
	if err != nil {
		return types.Value{}, err
	}
	if !lv.Null && lv.AsBool() {
		return types.BoolValue(true), nil
	}
	rv, err := o.R.Eval(r, s)
	if err != nil {
		return types.Value{}, err
	}
	if !rv.Null && rv.AsBool() {
		return types.BoolValue(true), nil
	}
	if lv.Null || rv.Null {
		return types.NullValue(types.Bool), nil
	}
	return types.BoolValue(false), nil
}

// SQL implements Expr.
func (o *Or) SQL() string { return fmt.Sprintf("(%s OR %s)", o.L.SQL(), o.R.SQL()) }

// Columns implements Expr.
func (o *Or) Columns(dst []string) []string { return o.R.Columns(o.L.Columns(dst)) }

// Not is logical negation; NOT NULL is NULL.
type Not struct{ E Expr }

// Eval implements Expr.
func (n *Not) Eval(r types.Row, s *types.Schema) (types.Value, error) {
	v, err := n.E.Eval(r, s)
	if err != nil {
		return types.Value{}, err
	}
	if v.Null {
		return v, nil
	}
	return types.BoolValue(!v.AsBool()), nil
}

// SQL implements Expr.
func (n *Not) SQL() string { return fmt.Sprintf("NOT (%s)", n.E.SQL()) }

// Columns implements Expr.
func (n *Not) Columns(dst []string) []string { return n.E.Columns(dst) }

// IsNull tests a value for SQL NULL (negate for IS NOT NULL).
type IsNull struct {
	E      Expr
	Negate bool
}

// Eval implements Expr.
func (i *IsNull) Eval(r types.Row, s *types.Schema) (types.Value, error) {
	v, err := i.E.Eval(r, s)
	if err != nil {
		return types.Value{}, err
	}
	return types.BoolValue(v.Null != i.Negate), nil
}

// SQL implements Expr.
func (i *IsNull) SQL() string {
	if i.Negate {
		return fmt.Sprintf("%s IS NOT NULL", i.E.SQL())
	}
	return fmt.Sprintf("%s IS NULL", i.E.SQL())
}

// Columns implements Expr.
func (i *IsNull) Columns(dst []string) []string { return i.E.Columns(dst) }

// ArithOp is an arithmetic operator.
type ArithOp int

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

func (o ArithOp) String() string {
	switch o {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	}
	return "?"
}

// Arith is binary arithmetic. Integer op integer yields integer (division
// truncates); any float operand promotes to float. NULL propagates.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Eval implements Expr.
func (a *Arith) Eval(r types.Row, s *types.Schema) (types.Value, error) {
	lv, err := a.L.Eval(r, s)
	if err != nil {
		return types.Value{}, err
	}
	rv, err := a.R.Eval(r, s)
	if err != nil {
		return types.Value{}, err
	}
	if lv.Null || rv.Null {
		return types.NullValue(types.Float64), nil
	}
	if lv.T == types.Int64 && rv.T == types.Int64 {
		switch a.Op {
		case Add:
			return types.IntValue(lv.I + rv.I), nil
		case Sub:
			return types.IntValue(lv.I - rv.I), nil
		case Mul:
			return types.IntValue(lv.I * rv.I), nil
		case Div:
			if rv.I == 0 {
				return types.Value{}, fmt.Errorf("expr: division by zero")
			}
			return types.IntValue(lv.I / rv.I), nil
		}
	}
	lf, rf := lv.AsFloat(), rv.AsFloat()
	switch a.Op {
	case Add:
		return types.FloatValue(lf + rf), nil
	case Sub:
		return types.FloatValue(lf - rf), nil
	case Mul:
		return types.FloatValue(lf * rf), nil
	case Div:
		if rf == 0 {
			return types.Value{}, fmt.Errorf("expr: division by zero")
		}
		return types.FloatValue(lf / rf), nil
	}
	return types.Value{}, fmt.Errorf("expr: bad arithmetic op")
}

// SQL implements Expr.
func (a *Arith) SQL() string {
	return fmt.Sprintf("(%s %s %s)", a.L.SQL(), a.Op, a.R.SQL())
}

// Columns implements Expr.
func (a *Arith) Columns(dst []string) []string { return a.R.Columns(a.L.Columns(dst)) }

// HashFn is the engine builtin HASH(col, ...). With no arguments it renders
// as HASH(*) and hashes the whole row — the synthetic hash the connector uses
// to partition views and unsegmented tables. Its value is the 32-bit ring
// position as an INTEGER.
type HashFn struct{ Args []Expr }

// Eval implements Expr.
func (h *HashFn) Eval(r types.Row, s *types.Schema) (types.Value, error) {
	if len(h.Args) == 0 {
		return types.IntValue(int64(vhash.Hash(r...))), nil
	}
	vals := make([]types.Value, len(h.Args))
	for i, a := range h.Args {
		v, err := a.Eval(r, s)
		if err != nil {
			return types.Value{}, err
		}
		vals[i] = v
	}
	return types.IntValue(int64(vhash.Hash(vals...))), nil
}

// SQL implements Expr.
func (h *HashFn) SQL() string {
	if len(h.Args) == 0 {
		return "HASH(*)"
	}
	parts := make([]string, len(h.Args))
	for i, a := range h.Args {
		parts[i] = a.SQL()
	}
	return "HASH(" + strings.Join(parts, ", ") + ")"
}

// Columns implements Expr.
func (h *HashFn) Columns(dst []string) []string {
	for _, a := range h.Args {
		dst = a.Columns(dst)
	}
	return dst
}

// ModFn is the engine builtin MOD(x, y) over integers.
type ModFn struct{ X, Y Expr }

// Eval implements Expr.
func (m *ModFn) Eval(r types.Row, s *types.Schema) (types.Value, error) {
	xv, err := m.X.Eval(r, s)
	if err != nil {
		return types.Value{}, err
	}
	yv, err := m.Y.Eval(r, s)
	if err != nil {
		return types.Value{}, err
	}
	if xv.Null || yv.Null {
		return types.NullValue(types.Int64), nil
	}
	y := yv.AsInt()
	if y == 0 {
		return types.Value{}, fmt.Errorf("expr: MOD by zero")
	}
	x := xv.AsInt()
	rem := x % y
	if rem < 0 {
		rem += y
	}
	return types.IntValue(rem), nil
}

// SQL implements Expr.
func (m *ModFn) SQL() string { return fmt.Sprintf("MOD(%s, %s)", m.X.SQL(), m.Y.SQL()) }

// Columns implements Expr.
func (m *ModFn) Columns(dst []string) []string { return m.Y.Columns(m.X.Columns(dst)) }

// Walk calls fn for e and every expression under it, parents first.
func Walk(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	var kids []Expr
	switch n := e.(type) {
	case *Cmp:
		kids = []Expr{n.L, n.R}
	case *And:
		kids = []Expr{n.L, n.R}
	case *Or:
		kids = []Expr{n.L, n.R}
	case *Arith:
		kids = []Expr{n.L, n.R}
	case *ModFn:
		kids = []Expr{n.X, n.Y}
	case *Not:
		kids = []Expr{n.E}
	case *IsNull:
		kids = []Expr{n.E}
	case *HashFn:
		kids = n.Args
	case *FuncCall:
		kids = n.Args
	}
	for _, k := range kids {
		Walk(k, fn)
	}
}

// ReadsRow reports whether e reads its whole input row, not only the columns
// Columns names: it holds a HASH(*).
func ReadsRow(e Expr) bool {
	whole := false
	Walk(e, func(n Expr) {
		if h, ok := n.(*HashFn); ok && len(h.Args) == 0 {
			whole = true
		}
	})
	return whole
}

// EvalPredicate evaluates e as a WHERE-clause predicate: NULL counts as
// false, per SQL semantics.
func EvalPredicate(e Expr, r types.Row, s *types.Schema) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := e.Eval(r, s)
	if err != nil {
		return false, err
	}
	return !v.Null && v.AsBool(), nil
}

// Conjoin combines predicates with AND, ignoring nils.
func Conjoin(es ...Expr) Expr {
	var out Expr
	for _, e := range es {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = &And{L: out, R: e}
		}
	}
	return out
}
