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
	Ret    types.Type // types.Unknown (a call bound by hand): Impl's value passes as it is
}

// Eval implements Expr.
func (f *FuncCall) Eval(r types.Row, s *types.Schema) (types.Value, error) {
	if f.Impl == nil {
		return types.Value{}, fmt.Errorf("expr: unbound function %q (no such builtin or UDx)", f.Name)
	}
	vals := make([]types.Value, len(f.Args))
	for i, a := range f.Args {
		v, err := a.Eval(r, s)
		if err != nil {
			return types.Value{}, err
		}
		vals[i] = v
	}
	v, err := f.Impl(vals, f.Params)
	if err != nil || f.Ret == types.Unknown {
		return v, err
	}
	if v, err = types.Coerce(v, f.Ret); err != nil {
		return types.Value{}, fmt.Errorf("expr: function %s declared %v: %w", f.Name, f.Ret, err)
	}
	return v, nil
}

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
