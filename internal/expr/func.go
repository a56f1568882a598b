package expr

import (
	"fmt"
	"sort"
	"strings"

	"vsfabric/internal/types"
)

// FuncCall is a call to a named function the expression layer does not know
// intrinsically — engine builtins like LAST_EPOCH() and User-Defined
// Extensions like PMMLPredict (§3.3 of the paper). The planner binds Impl and
// Ret by looking the name up in the engine's UDx registry; evaluating an
// unbound call is an error. Ret is the function's declared return type: the
// plan types the call's column by it, and a value Impl returns that the type
// cannot represent fails the evaluation instead of reaching a vector.
//
// Params carries Vertica's USING PARAMETERS clause, e.g.
// PMMLPredict(a, b USING PARAMETERS model_name='regression').
type FuncCall struct {
	Name   string
	Args   []Expr
	Params map[string]string
	Impl   func(args []types.Value, params map[string]string) (types.Value, error)
	Ret    types.Type // types.Unknown (a call bound by hand): FLOAT, as a UDx's
}

// Operands implements Op.
func (f *FuncCall) Operands() []Expr { return f.Args }

// Type is the call's type: its declared return type.
func (f *FuncCall) Type() types.Type {
	if f.Ret == types.Unknown {
		return types.Float64
	}
	return f.Ret
}

// Apply implements Op: Impl's value, held to the call's type by
// types.Coerce.
func (f *FuncCall) Apply(args []types.Value) (types.Value, error) {
	if f.Impl == nil {
		return types.Value{}, fmt.Errorf("expr: unbound function %q (no such builtin or UDx)", f.Name)
	}
	v, err := f.Impl(args, f.Params)
	if err != nil {
		return v, err
	}
	t := f.Type()
	if v, err = types.Coerce(v, t); err != nil {
		return types.Value{}, fmt.Errorf("expr: function %s declared %v: %w", f.Name, t, err)
	}
	return v, nil
}

// Eval implements Expr.
func (f *FuncCall) Eval(r types.Row, s *types.Schema) (types.Value, error) { return evalOp(f, r, s) }

// SQL implements Expr.
func (f *FuncCall) SQL() string {
	var b strings.Builder
	b.WriteString(f.Name)
	b.WriteByte('(')
	for i, a := range f.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.SQL())
	}
	if len(f.Params) > 0 {
		b.WriteString(" USING PARAMETERS ")
		keys := make([]string, 0, len(f.Params))
		for k := range f.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s='%s'", k, types.SQLEscape(f.Params[k]))
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Columns implements Expr.
func (f *FuncCall) Columns(dst []string) []string {
	for _, a := range f.Args {
		dst = a.Columns(dst)
	}
	return dst
}
