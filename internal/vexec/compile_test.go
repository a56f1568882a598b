package vexec

import (
	"errors"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"vsfabric/internal/expr"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vsql"
)

// exprGen generates expressions over intSchema's columns (x INTEGER, f FLOAT,
// s VARCHAR, b BOOLEAN): every operator, literals at the edges of their types,
// calls of two bound functions that count their calls, and divisions, MODs
// and calls that fail on some rows, guarded by AND/OR or not. NaN and ±Inf
// literals are left out: they have no SQL spelling, so the print/parse round
// trip could not hold for them.
type exprGen struct {
	rng   *rand.Rand
	calls int // bound function calls, across every evaluation
}

var errSeven = errors.New("udx: seven")

func (g *exprGen) lit() expr.Expr {
	vals := []types.Value{
		types.IntValue(0), types.IntValue(1), types.IntValue(-1), types.IntValue(7), types.IntValue(-3),
		types.IntValue(math.MaxInt64), types.IntValue(math.MinInt64),
		types.FloatValue(0.5), types.FloatValue(-2.5), types.FloatValue(3), types.FloatValue(math.Copysign(0, -1)),
		types.FloatValue(1e300), types.FloatValue(-1.5e-7),
		types.StringValue("a"), types.StringValue(""), types.StringValue("o'b"), types.StringValue("7"),
		types.BoolValue(true), types.BoolValue(false),
		types.NullValue(types.Int64), types.NullValue(types.Float64), types.NullValue(types.Varchar), types.NullValue(types.Bool),
	}
	return &expr.Lit{V: vals[g.rng.Intn(len(vals))]}
}

func (g *exprGen) call(name string, args ...expr.Expr) *expr.FuncCall {
	f := &expr.FuncCall{Name: name, Args: args}
	switch name {
	case "TWICE": // FLOAT; fails on the INTEGER 7
		f.Ret = types.Float64
		f.Impl = func(a []types.Value, _ map[string]string) (types.Value, error) {
			g.calls++
			if !a[0].Null && a[0].T == types.Int64 && a[0].I == 7 {
				return types.Value{}, errSeven
			}
			if a[0].Null {
				return types.NullValue(types.Float64), nil
			}
			return types.FloatValue(2 * a[0].AsFloat()), nil
		}
	case "WIDTH": // INTEGER
		f.Ret = types.Int64
		f.Impl = func(a []types.Value, _ map[string]string) (types.Value, error) {
			g.calls++
			return types.IntValue(int64(len(a[0].String()))), nil
		}
	}
	if g.rng.Intn(3) == 0 {
		f.Params = map[string]string{"mode": "it's", "k": "3"}
	}
	return f
}

func (g *exprGen) gen(depth int) expr.Expr {
	cols := []string{"x", "f", "s", "b"}
	if depth <= 0 || g.rng.Intn(5) == 0 {
		if g.rng.Intn(2) == 0 {
			return &expr.Col{Name: cols[g.rng.Intn(len(cols))]}
		}
		return g.lit()
	}
	sub := func() expr.Expr { return g.gen(depth - 1) }
	x := &expr.Col{Name: "x"}
	switch g.rng.Intn(14) {
	case 0, 1:
		return &expr.Cmp{Op: expr.CmpOp(g.rng.Intn(6)), L: sub(), R: sub()}
	case 2:
		return &expr.And{L: sub(), R: sub()}
	case 3:
		return &expr.Or{L: sub(), R: sub()}
	case 4:
		return &expr.Not{E: sub()}
	case 5:
		return &expr.IsNull{E: sub(), Negate: g.rng.Intn(2) == 0}
	case 6, 7:
		return &expr.Arith{Op: expr.ArithOp(g.rng.Intn(4)), L: sub(), R: sub()}
	case 8:
		return &expr.ModFn{X: sub(), Y: sub()}
	case 9:
		if g.rng.Intn(3) == 0 {
			return &expr.HashFn{}
		}
		return &expr.HashFn{Args: []expr.Expr{sub(), sub()}}
	case 10:
		return g.call([]string{"TWICE", "WIDTH"}[g.rng.Intn(2)], sub())
	case 11: // a division guarded by its divisor's test
		guard := &expr.Cmp{Op: expr.NE, L: x, R: &expr.Lit{V: types.IntValue(0)}}
		div := &expr.Cmp{Op: expr.GT, L: &expr.Arith{Op: expr.Div, L: sub(), R: x}, R: sub()}
		return &expr.And{L: guard, R: div}
	case 12: // a failing call guarded by OR
		seven := &expr.Cmp{Op: expr.EQ, L: x, R: &expr.Lit{V: types.IntValue(7)}}
		return &expr.Or{L: seven, R: &expr.IsNull{E: g.call("TWICE", x)}}
	default:
		return &expr.Arith{Op: expr.Add, L: x, R: &expr.Lit{V: types.IntValue(math.MaxInt64)}} // wraps
	}
}

// kernelConjunct is a conjunct of a shape Compile lowers to a kernel.
func (g *exprGen) kernelConjunct() expr.Expr {
	cols := []string{"x", "f", "s", "b"}
	c := &expr.Col{Name: cols[g.rng.Intn(len(cols))]}
	switch g.rng.Intn(4) {
	case 0:
		return &expr.IsNull{E: c, Negate: true}
	case 1:
		return &expr.Col{Name: "b"}
	}
	lit := map[string]types.Value{"x": types.IntValue(1), "f": types.FloatValue(0.5), "s": types.StringValue("a"), "b": types.BoolValue(true)}[c.Name]
	return &expr.Cmp{Op: expr.CmpOp(g.rng.Intn(6)), L: c, R: &expr.Lit{V: lit}}
}

// batch fills intSchema's columns with n rows — NULLs, zeros, the values the
// guards and the failing call test for, INTEGER edges — and picks a random
// selection. x may be null-free.
func (g *exprGen) batch() *storage.Batch {
	n := 1 + g.rng.Intn(40)
	ints := []int64{0, 1, -1, 2, 7, 13, math.MaxInt64, math.MinInt64}
	x := &storage.Int64Column{Vals: make([]int64, n), Nulls: make([]bool, n)}
	f := &storage.Float64Column{Vals: make([]float64, n), Nulls: make([]bool, n)}
	s := &storage.StringColumn{Vals: make([]string, n), Nulls: make([]bool, n)}
	b := &storage.BoolColumn{Vals: make([]bool, n), Nulls: make([]bool, n)}
	strs := []string{"a", "", "7", "2.5", "zz"}
	floats := []float64{0, 0.5, -2.5, 3, 7, 1e300}
	for i := 0; i < n; i++ {
		x.Vals[i], x.Nulls[i] = ints[g.rng.Intn(len(ints))], g.rng.Intn(6) == 0
		f.Vals[i], f.Nulls[i] = floats[g.rng.Intn(len(floats))], g.rng.Intn(6) == 0
		s.Vals[i], s.Nulls[i] = strs[g.rng.Intn(len(strs))], g.rng.Intn(6) == 0
		b.Vals[i], b.Nulls[i] = g.rng.Intn(2) == 0, g.rng.Intn(6) == 0
	}
	cols := []storage.Column{x, f, s, b}
	if g.rng.Intn(4) == 0 {
		cols[0] = &storage.Int64Column{Vals: x.Vals} // null-free
	}
	var sel []int32
	for i := 0; i < n; i++ {
		if g.rng.Intn(4) != 0 {
			sel = append(sel, int32(i))
		}
	}
	if sel == nil {
		sel = []int32{int32(n - 1)}
	}
	return &storage.Batch{Schema: intSchema(), Cols: cols, Sel: sel}
}

// sameValue compares two values cell for cell: kind and bits (NaN equal to
// NaN), with a NULL equal to a NULL of any type.
func sameValue(a, b types.Value) bool {
	switch {
	case a.Null || b.Null:
		return a.Null == b.Null
	case a.T != b.T:
		return false
	case a.T == types.Float64:
		return math.Float64bits(a.F) == math.Float64bits(b.F) || a.F != a.F && b.F != b.F
	}
	return a == b
}

// evalRows evaluates e per row over b's boxed rows at sel: the values, and
// the first error.
func evalRows(e expr.Expr, b *storage.Batch, sel []int32) ([]types.Value, error) {
	var out []types.Value
	for _, i := range sel {
		v, err := e.Eval(b.Row(int(i), nil), &b.Schema)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// TestCompiledMatchesEval diffs the compiled evaluator against Eval over
// generated expressions and batches: value for value (kind included), error
// for error (the same message row by row), and bound-function call for call.
// The vector is as long as the batch's own and of the type CompileExpr gives
// the expression.
func TestCompiledMatchesEval(t *testing.T) {
	g := &exprGen{rng: rand.New(rand.NewSource(27))}
	var errs int
	for trial := 0; trial < 3000; trial++ {
		e := g.gen(4)
		b := g.batch()
		vec, typ := CompileExpr(e, b.Schema)

		g.calls = 0
		want, wantErr := evalRows(e, b, b.Sel)
		evalCalls := g.calls
		g.calls = 0
		col, err := vec(b, b.Sel)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("trial %d %s: compiled error %v, Eval error %v", trial, e.SQL(), err, wantErr)
		}
		if err != nil {
			errs++
		} else {
			if g.calls != evalCalls {
				t.Fatalf("trial %d %s: %d calls compiled, %d by Eval", trial, e.SQL(), g.calls, evalCalls)
			}
			if col.Len() != b.Cols[0].Len() {
				t.Fatalf("trial %d %s: a %d-row vector over a %d-row batch", trial, e.SQL(), col.Len(), b.Cols[0].Len())
			}
			for k, i := range b.Sel {
				if got := col.Get(int(i)); !sameValue(got, want[k]) {
					t.Fatalf("trial %d %s row %d: compiled %v (%v), Eval %v (%v)", trial, e.SQL(), i, got, got.T, want[k], want[k].T)
				}
			}
			if col.Type() != typ {
				t.Fatalf("trial %d %s: a %v vector, typed %v", trial, e.SQL(), col.Type(), typ)
			}
		}
		// As a WHERE clause beside a conjunct a kernel answers: where
		// EvalPredicate keeps rows without failing, the kernels and the
		// compiled residual keep the same.
		where := expr.Conjoin(g.kernelConjunct(), e)
		keep, evalErr := []int32{}, error(nil)
		for _, i := range b.Sel {
			var ok bool
			if ok, evalErr = expr.EvalPredicate(where, b.Row(int(i), nil), &b.Schema); evalErr != nil {
				break
			}
			if ok {
				keep = append(keep, i)
			}
		}
		filtered := &storage.Batch{Schema: b.Schema, Cols: b.Cols, Sel: slices.Clone(b.Sel)}
		if err := Compile(where, b.Schema, nil).FilterBatch(filtered); evalErr == nil && (err != nil || !slices.Equal(filtered.Sel, keep)) {
			t.Fatalf("trial %d WHERE %s: kept %v (error %v), EvalPredicate keeps %v", trial, where.SQL(), filtered.Sel, err, keep)
		}
		for _, i := range b.Sel {
			one := []int32{i}
			g.calls = 0
			want, wantErr := evalRows(e, b, one)
			evalCalls := g.calls
			g.calls = 0
			col, err := vec(b, one)
			switch {
			case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
				t.Fatalf("trial %d %s row %d: compiled error %v, Eval error %v", trial, e.SQL(), i, err, wantErr)
			case err == nil && (!sameValue(col.Get(int(i)), want[0]) || g.calls != evalCalls):
				t.Fatalf("trial %d %s row %d: compiled %v after %d calls, Eval %v after %d", trial, e.SQL(), i, col.Get(int(i)), g.calls, want[0], evalCalls)
			}
		}
	}
	if errs < 100 {
		t.Fatalf("generator too tame: %d failing evaluations", errs)
	}
}

// sameExpr compares two trees node for node; a NULL literal's type has no
// SQL spelling, so NULLs compare equal whatever their type.
func sameExpr(a, b expr.Expr) bool {
	if reflect.TypeOf(a) != reflect.TypeOf(b) {
		return false
	}
	switch x := a.(type) {
	case *expr.Col:
		return x.Name == b.(*expr.Col).Name
	case *expr.Lit:
		return sameValue(x.V, b.(*expr.Lit).V)
	case *expr.Cmp:
		if x.Op != b.(*expr.Cmp).Op {
			return false
		}
	case *expr.Arith:
		if x.Op != b.(*expr.Arith).Op {
			return false
		}
	case *expr.IsNull:
		if x.Negate != b.(*expr.IsNull).Negate {
			return false
		}
	case *expr.FuncCall:
		if y := b.(*expr.FuncCall); x.Name != y.Name || !maps.Equal(x.Params, y.Params) {
			return false
		}
	}
	ka, kb := a.(expr.Op).Operands(), b.(expr.Op).Operands()
	if len(ka) != len(kb) {
		return false
	}
	for k := range ka {
		if !sameExpr(ka[k], kb[k]) {
			return false
		}
	}
	return true
}

// TestPrintParseRoundTrip: the parser reads back what the printer writes —
// parse(e.SQL()) ≡ e over the generator of TestCompiledMatchesEval, negative
// and whole FLOAT literals, -0.0 and nested comparisons included.
func TestPrintParseRoundTrip(t *testing.T) {
	g := &exprGen{rng: rand.New(rand.NewSource(9))}
	for trial := 0; trial < 3000; trial++ {
		e := g.gen(4)
		st, err := vsql.Parse("SELECT * FROM t WHERE " + e.SQL())
		if err != nil {
			t.Fatalf("trial %d: %s does not parse: %v", trial, e.SQL(), err)
		}
		if got := st.(*vsql.Select).Where; !sameExpr(got, e) {
			t.Fatalf("trial %d: %s parses back as %s", trial, e.SQL(), got.SQL())
		}
	}
}
