package vexec

import (
	"fmt"
	"slices"

	"vsfabric/internal/expr"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

// Vec is an expression compiled over column batches. It evaluates the
// expression at the positions sel of b (never empty) and returns a vector as
// long as b's own, indexed by b's physical positions, valid at those in sel.
type Vec func(b *storage.Batch, sel []int32) (storage.Column, error)

// CompileExpr compiles e once, for batches of schema, and returns with its
// vector function the type of the vectors that function builds for them: the
// type a plan's schema gives the expression. A column is the batch's own
// vector, not a copy. Every operator runs one loop over sel applying its
// value rule (expr.Op's Apply, the rule Eval applies to a row) into a vector
// of the type the rule gives its operands' vectors — an AND or OR evaluating
// its right operand only on the rows its left one leaves undecided. Every
// vector of a batch is of its schema column's type (storage establishes it
// where data enters), so each operator's vector is of the type the plan gives
// it. A batch that evaluates without error gives what Eval over its rows
// would — the same values, kind included, from the same UDx calls. Otherwise
// only the failure matches: a batch fails exactly when some row's Eval does,
// but every other operator evaluates each operand over the whole selection
// first, so the error may be another row's and the UDx calls more.
func CompileExpr(e expr.Expr, schema types.Schema) (Vec, types.Type) {
	switch n := e.(type) {
	case *expr.Col:
		ci, err := n.Index(&schema)
		if err != nil {
			return func(*storage.Batch, []int32) (storage.Column, error) { return nil, err }, types.Unknown
		}
		return func(b *storage.Batch, _ []int32) (storage.Column, error) { return b.Cols[ci], nil }, schema.Cols[ci].T
	case *expr.Lit:
		return func(b *storage.Batch, sel []int32) (storage.Column, error) {
			out := newVector(n.V.T, b, sel)
			for _, i := range sel {
				if err := put(out, i, n.V); err != nil {
					return nil, err
				}
			}
			return out, nil
		}, n.V.T
	case expr.Op:
		return compileOp(n, schema)
	}
	err := fmt.Errorf("vexec: cannot compile %T", e)
	return func(*storage.Batch, []int32) (storage.Column, error) { return nil, err }, types.Unknown
}

// TypeOf is the type CompileExpr gives e over schema.
func TypeOf(e expr.Expr, schema types.Schema) types.Type {
	_, t := CompileExpr(e, schema)
	return t
}

func compileOp(op expr.Op, schema types.Schema) (Vec, types.Type) {
	kids := op.Operands()
	vecs, ts := make([]Vec, len(kids)), make([]types.Type, len(kids))
	for k, e := range kids {
		vecs[k], ts[k] = CompileExpr(e, schema)
	}
	h, isHash := op.(*expr.HashFn)
	whole := isHash && len(h.Args) == 0 // HASH(*): the operands are the batch's columns
	_, isAnd := op.(*expr.And)
	_, isOr := op.(*expr.Or)
	t := expr.ResultType(op, ts)
	return func(b *storage.Batch, sel []int32) (storage.Column, error) {
		cols := b.Cols
		if !whole {
			cols = make([]storage.Column, len(vecs))
		}
		for k, v := range vecs {
			ksel := sel
			if k > 0 && (isAnd || isOr) {
				// The right operand, on the rows the left one leaves undecided.
				ksel = nil
				for _, i := range sel {
					if !expr.Decides(op, cols[0].Get(int(i))) {
						ksel = append(ksel, i)
					}
				}
				if ksel == nil {
					continue
				}
			}
			var err error
			if cols[k], err = v(b, ksel); err != nil {
				return nil, err
			}
		}
		out, vals := newVector(t, b, sel), make([]types.Value, len(cols))
		for _, i := range sel {
			for k, c := range cols {
				vals[k] = types.Value{}
				if k == 0 || !expr.Decides(op, vals[0]) {
					vals[k] = c.Get(int(i))
				}
			}
			v, err := op.Apply(vals)
			if err == nil {
				err = put(out, i, v)
			}
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	}, t
}

// Cast returns col as a vector of type t at the positions sel: col itself
// when it is of that type, else a copy of its length whose values meet t by
// types.Coerce.
func Cast(col storage.Column, t types.Type, sel []int32) (storage.Column, error) {
	if col.Type() == t {
		return col, nil
	}
	out := newVector(t, &storage.Batch{Cols: []storage.Column{col}}, sel)
	for _, i := range sel {
		if err := put(out, i, col.Get(int(i))); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// newVector returns a vector of type t as long as b's own vectors — a batch's
// vectors all have one length — or, when b has none, spanning every position
// in sel; every value zero and none NULL.
func newVector(t types.Type, b *storage.Batch, sel []int32) storage.Column {
	var n int
	if len(b.Cols) > 0 {
		n = b.Cols[0].Len()
	} else {
		n = int(slices.Max(sel)) + 1
	}
	switch t {
	case types.Int64:
		return &storage.Int64Column{Vals: make([]int64, n)}
	case types.Float64:
		return &storage.Float64Column{Vals: make([]float64, n)}
	case types.Varchar:
		return &storage.StringColumn{Vals: make([]string, n)}
	}
	return &storage.BoolColumn{Vals: make([]bool, n)}
}

// put writes v at position i of a newVector, meeting its type by
// types.Coerce; the vector's NULL flags are made at its first NULL.
func put(c storage.Column, i int32, v types.Value) error {
	if !v.Null && v.T != c.Type() {
		var err error
		if v, err = types.Coerce(v, c.Type()); err != nil {
			return err
		}
	}
	switch c := c.(type) {
	case *storage.Int64Column:
		c.Vals[i], c.Nulls = v.I, setNull(c.Nulls, len(c.Vals), i, v.Null)
	case *storage.Float64Column:
		c.Vals[i], c.Nulls = v.F, setNull(c.Nulls, len(c.Vals), i, v.Null)
	case *storage.StringColumn:
		c.Vals[i], c.Nulls = v.S, setNull(c.Nulls, len(c.Vals), i, v.Null)
	case *storage.BoolColumn:
		c.Vals[i], c.Nulls = v.B, setNull(c.Nulls, len(c.Vals), i, v.Null)
	}
	return nil
}

func setNull(nulls []bool, n int, i int32, null bool) []bool {
	if null && nulls == nil {
		nulls = make([]bool, n)
	}
	if null {
		nulls[i] = true
	}
	return nulls
}

// keepTrue appends to out, as a Kernel does, the rows of sel where v
// evaluates non-NULL true: a WHERE clause's reading of a value.
func keepTrue(v Vec, b *storage.Batch, sel, out []int32) ([]int32, error) {
	col, err := v(b, sel)
	if err != nil {
		return nil, err
	}
	for _, i := range sel {
		if t := col.Get(int(i)); !t.Null && t.AsBool() {
			out = append(out, i)
		}
	}
	return out, nil
}
