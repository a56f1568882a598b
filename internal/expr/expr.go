// Package expr defines the scalar expression AST shared by the SQL layer and
// the connector's pushdown machinery. Expressions evaluate against a row and
// its schema; the subset matches what Spark's External Data Source API can
// push down (column refs, literals, comparisons, boolean connectives, IS
// NULL) plus the engine-side builtins the connector's generated queries rely
// on: HASH(cols) for locality-aware range scans and MOD for synthetic hash
// partitioning of views (§3.1 of the paper).
//
// Every operator's value rule is written once, as its Apply method (Op). Eval
// applies it to one row; vexec compiles the same rules over column vectors,
// and that compiled form is what the engine runs. Eval remains the test
// oracle's reference and INSERT VALUES' constant folding.
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

// Op is an operator: an expression whose value is a function of its operands'
// values alone. Apply is that function — the operator's value rule. Over NULL
// operands it returns a value (a NULL or not) of the type it gives operands of
// theirs, so the rule types the operator too (ResultType). Eval runs the
// operands left to right, stops at the first error, and applies the rule; AND
// and OR skip their right operand where the left one decides (Decides), and
// Apply is then passed a zero Value in its place.
type Op interface {
	Expr
	Operands() []Expr
	Apply(vals []types.Value) (types.Value, error)
}

// ResultType is the type op's rule gives operands of types ts: that of its
// value over NULLs of those types. A call's rule runs its implementation, so
// a call is typed by its declaration instead.
func ResultType(op Op, ts []types.Type) types.Type {
	if f, ok := op.(*FuncCall); ok {
		return f.Type()
	}
	nulls := make([]types.Value, len(ts))
	for k, t := range ts {
		nulls[k] = types.NullValue(t)
	}
	v, _ := op.Apply(nulls)
	return v.T
}

// evalOp is Eval for every operator.
func evalOp(op Op, r types.Row, s *types.Schema) (types.Value, error) {
	kids := op.Operands()
	vals := make([]types.Value, len(kids))
	for k, e := range kids {
		if k > 0 && Decides(op, vals[0]) {
			break
		}
		v, err := e.Eval(r, s)
		if err != nil {
			return types.Value{}, err
		}
		vals[k] = v
	}
	return op.Apply(vals)
}

// Decides reports whether the left operand value l alone decides the
// connective e: FALSE decides an AND, TRUE an OR. Nothing else short-circuits.
func Decides(e Expr, l types.Value) bool {
	switch e.(type) {
	case *And:
		return is(l, false)
	case *Or:
		return is(l, true)
	}
	return false
}

// Col references a named column.
type Col struct{ Name string }

// Index resolves the column against s: its position, or the error an
// evaluation reports for a column s does not have.
func (c *Col) Index(s *types.Schema) (int, error) {
	if i := s.ColIndex(c.Name); i >= 0 {
		return i, nil
	}
	return -1, fmt.Errorf("expr: unknown column %q", c.Name)
}

// Eval implements Expr.
func (c *Col) Eval(r types.Row, s *types.Schema) (types.Value, error) {
	i, err := c.Index(s)
	if err != nil {
		return types.Value{}, err
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

var cmpNames = [...]string{EQ: "=", NE: "<>", LT: "<", LE: "<=", GT: ">", GE: ">="}

func (o CmpOp) String() string { return cmpNames[o] }

// holds is each operator's truth table over a three-way comparison's result:
// less, equal, greater.
var holds = [...][3]bool{
	EQ: {false, true, false}, NE: {true, false, true},
	LT: {true, false, false}, LE: {true, true, false},
	GT: {false, false, true}, GE: {false, true, true},
}

// Holds reports whether a three-way comparison result n (negative, zero,
// positive) satisfies the operator.
func (o CmpOp) Holds(n int) bool { return holds[o][min(max(n, -1), 1)+1] }

// Cmp is a binary comparison. SQL three-valued logic applies: comparing with
// NULL yields NULL (represented as a NULL BOOLEAN value).
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Operands implements Op.
func (c *Cmp) Operands() []Expr { return []Expr{c.L, c.R} }

// Apply implements Op: types.Compare's order, NULL against NULL.
func (c *Cmp) Apply(v []types.Value) (types.Value, error) {
	if v[0].Null || v[1].Null {
		return types.NullValue(types.Bool), nil
	}
	return types.BoolValue(c.Op.Holds(types.Compare(v[0], v[1]))), nil
}

// Eval implements Expr.
func (c *Cmp) Eval(r types.Row, s *types.Schema) (types.Value, error) { return evalOp(c, r, s) }

// SQL implements Expr.
func (c *Cmp) SQL() string { return operand(c.L) + " " + c.Op.String() + " " + operand(c.R) }

// Columns implements Expr.
func (c *Cmp) Columns(dst []string) []string { return c.R.Columns(c.L.Columns(dst)) }

// operand renders e as an operand of a comparison, IS NULL or arithmetic:
// the forms the parser reads only above those (a comparison, IS NULL, NOT)
// are parenthesized, so the text parses back to the same tree.
func operand(e Expr) string {
	switch e.(type) {
	case *Cmp, *IsNull, *Not:
		return "(" + e.SQL() + ")"
	}
	return e.SQL()
}

// is reports whether v is the non-NULL truth value b.
func is(v types.Value, b bool) bool { return !v.Null && v.AsBool() == b }

// connective is AND's rule (stop false) and OR's (stop true): stop if either
// side is, else NULL if either side is.
func connective(stop bool, v []types.Value) (types.Value, error) {
	switch {
	case is(v[0], stop) || is(v[1], stop):
		return types.BoolValue(stop), nil
	case v[0].Null || v[1].Null:
		return types.NullValue(types.Bool), nil
	}
	return types.BoolValue(!stop), nil
}

// And is logical conjunction with SQL three-valued logic.
type And struct{ L, R Expr }

// Operands implements Op.
func (a *And) Operands() []Expr { return []Expr{a.L, a.R} }

// Apply implements Op: FALSE if either side is, else NULL if either is.
func (a *And) Apply(v []types.Value) (types.Value, error) { return connective(false, v) }

// Eval implements Expr.
func (a *And) Eval(r types.Row, s *types.Schema) (types.Value, error) { return evalOp(a, r, s) }

// SQL implements Expr.
func (a *And) SQL() string { return fmt.Sprintf("(%s AND %s)", a.L.SQL(), a.R.SQL()) }

// Columns implements Expr.
func (a *And) Columns(dst []string) []string { return a.R.Columns(a.L.Columns(dst)) }

// Or is logical disjunction with SQL three-valued logic.
type Or struct{ L, R Expr }

// Operands implements Op.
func (o *Or) Operands() []Expr { return []Expr{o.L, o.R} }

// Apply implements Op: TRUE if either side is, else NULL if either is.
func (o *Or) Apply(v []types.Value) (types.Value, error) { return connective(true, v) }

// Eval implements Expr.
func (o *Or) Eval(r types.Row, s *types.Schema) (types.Value, error) { return evalOp(o, r, s) }

// SQL implements Expr.
func (o *Or) SQL() string { return fmt.Sprintf("(%s OR %s)", o.L.SQL(), o.R.SQL()) }

// Columns implements Expr.
func (o *Or) Columns(dst []string) []string { return o.R.Columns(o.L.Columns(dst)) }

// Not is logical negation; NOT NULL is NULL.
type Not struct{ E Expr }

// Operands implements Op.
func (n *Not) Operands() []Expr { return []Expr{n.E} }

// Apply implements Op.
func (n *Not) Apply(v []types.Value) (types.Value, error) {
	if v[0].Null {
		return types.NullValue(types.Bool), nil
	}
	return types.BoolValue(!v[0].AsBool()), nil
}

// Eval implements Expr.
func (n *Not) Eval(r types.Row, s *types.Schema) (types.Value, error) { return evalOp(n, r, s) }

// SQL implements Expr.
func (n *Not) SQL() string { return fmt.Sprintf("NOT (%s)", n.E.SQL()) }

// Columns implements Expr.
func (n *Not) Columns(dst []string) []string { return n.E.Columns(dst) }

// IsNull tests a value for SQL NULL (negate for IS NOT NULL).
type IsNull struct {
	E      Expr
	Negate bool
}

// Operands implements Op.
func (i *IsNull) Operands() []Expr { return []Expr{i.E} }

// Apply implements Op.
func (i *IsNull) Apply(v []types.Value) (types.Value, error) {
	return types.BoolValue(v[0].Null != i.Negate), nil
}

// Eval implements Expr.
func (i *IsNull) Eval(r types.Row, s *types.Schema) (types.Value, error) { return evalOp(i, r, s) }

// SQL implements Expr.
func (i *IsNull) SQL() string {
	if i.Negate {
		return operand(i.E) + " IS NOT NULL"
	}
	return operand(i.E) + " IS NULL"
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

var arithNames = [...]string{Add: "+", Sub: "-", Mul: "*", Div: "/"}

func (o ArithOp) String() string { return arithNames[o] }

// Arith is binary arithmetic. Integer op integer yields integer (wrapping on
// overflow; division truncates); any other operand promotes both to float.
// NULL propagates, and division by zero is an error.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Operands implements Op.
func (a *Arith) Operands() []Expr { return []Expr{a.L, a.R} }

// Apply implements Op: INTEGER arithmetic over two INTEGER operands, FLOAT
// arithmetic otherwise.
func (a *Arith) Apply(v []types.Value) (types.Value, error) {
	l, r := v[0], v[1]
	ints := l.T == types.Int64 && r.T == types.Int64
	switch {
	case (l.Null || r.Null) && ints:
		return types.NullValue(types.Int64), nil
	case l.Null || r.Null:
		return types.NullValue(types.Float64), nil
	case ints:
		n, err := arith(a.Op, l.I, r.I)
		return types.IntValue(n), err
	}
	f, err := arith(a.Op, l.AsFloat(), r.AsFloat())
	return types.FloatValue(f), err
}

func arith[T int64 | float64](op ArithOp, l, r T) (T, error) {
	switch {
	case op == Add:
		return l + r, nil
	case op == Sub:
		return l - r, nil
	case op == Mul:
		return l * r, nil
	case r == 0:
		return 0, fmt.Errorf("expr: division by zero")
	}
	return l / r, nil
}

// Eval implements Expr.
func (a *Arith) Eval(r types.Row, s *types.Schema) (types.Value, error) { return evalOp(a, r, s) }

// SQL implements Expr.
func (a *Arith) SQL() string {
	return "(" + operand(a.L) + " " + a.Op.String() + " " + operand(a.R) + ")"
}

// Columns implements Expr.
func (a *Arith) Columns(dst []string) []string { return a.R.Columns(a.L.Columns(dst)) }

// HashFn is the engine builtin HASH(col, ...). With no arguments it renders
// as HASH(*) and hashes the whole row — the synthetic hash the connector uses
// to partition views and unsegmented tables: its operands are then every
// column of the row. Its value is the 32-bit ring position as an INTEGER.
type HashFn struct{ Args []Expr }

// Operands implements Op.
func (h *HashFn) Operands() []Expr { return h.Args }

// Apply implements Op.
func (h *HashFn) Apply(v []types.Value) (types.Value, error) {
	return types.IntValue(int64(vhash.Hash(v...))), nil
}

// Eval implements Expr.
func (h *HashFn) Eval(r types.Row, s *types.Schema) (types.Value, error) {
	if len(h.Args) == 0 {
		return h.Apply(r)
	}
	return evalOp(h, r, s)
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

// Operands implements Op.
func (m *ModFn) Operands() []Expr { return []Expr{m.X, m.Y} }

// Apply implements Op: the non-negative remainder of the operands as
// integers.
func (m *ModFn) Apply(v []types.Value) (types.Value, error) {
	if v[0].Null || v[1].Null {
		return types.NullValue(types.Int64), nil
	}
	y := v[1].AsInt()
	if y == 0 {
		return types.Value{}, fmt.Errorf("expr: MOD by zero")
	}
	rem := v[0].AsInt() % y
	if rem < 0 {
		rem += y
	}
	return types.IntValue(rem), nil
}

// Eval implements Expr.
func (m *ModFn) Eval(r types.Row, s *types.Schema) (types.Value, error) { return evalOp(m, r, s) }

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
	if op, ok := e.(Op); ok {
		for _, k := range op.Operands() {
			Walk(k, fn)
		}
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
	return is(v, true), nil
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
