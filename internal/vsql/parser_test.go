package vsql

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"vsfabric/internal/expr"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vexec"
)

func parseSelect(t *testing.T, sql string) *Select {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	sel, ok := st.(*Select)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *Select", sql, st)
	}
	return sel
}

func TestParseSimpleSelect(t *testing.T) {
	sel := parseSelect(t, "SELECT a, b FROM t WHERE a > 5 LIMIT 10")
	if len(sel.Items) != 2 || sel.From.Name != "t" || sel.Limit != 10 {
		t.Errorf("bad parse: %+v", sel)
	}
	if sel.Where == nil {
		t.Error("WHERE not parsed")
	}
}

func TestParseSelectStar(t *testing.T) {
	sel := parseSelect(t, "SELECT * FROM t")
	if !sel.Items[0].Star {
		t.Error("star not parsed")
	}
}

func TestParseAtEpoch(t *testing.T) {
	sel := parseSelect(t, "AT EPOCH 42 SELECT * FROM t")
	if sel.AtEpoch == nil || sel.AtEpoch.N != 42 || sel.AtEpoch.Latest {
		t.Errorf("AT EPOCH parse: %+v", sel.AtEpoch)
	}
	sel = parseSelect(t, "AT EPOCH LATEST SELECT * FROM t")
	if sel.AtEpoch == nil || !sel.AtEpoch.Latest {
		t.Errorf("AT EPOCH LATEST parse: %+v", sel.AtEpoch)
	}
}

// The exact query shape V2S generates (§3.1.2).
func TestParseV2SPartitionQuery(t *testing.T) {
	sql := "AT EPOCH 7 SELECT c0, c1 FROM d1 WHERE HASH(c0) >= 1073741824 AND HASH(c0) < 2147483648"
	sel := parseSelect(t, sql)
	and, ok := sel.Where.(*expr.And)
	if !ok {
		t.Fatalf("WHERE is %T", sel.Where)
	}
	ge := and.L.(*expr.Cmp)
	if _, ok := ge.L.(*expr.HashFn); !ok {
		t.Error("left side of range predicate should be HASH()")
	}
	if ge.Op != expr.GE {
		t.Error("expected >=")
	}
}

func TestParseSyntheticHash(t *testing.T) {
	sel := parseSelect(t, "SELECT * FROM v WHERE MOD(HASH(*), 8) = 3")
	cmp, ok := sel.Where.(*expr.Cmp)
	if !ok {
		t.Fatalf("WHERE is %T", sel.Where)
	}
	mod, ok := cmp.L.(*expr.ModFn)
	if !ok {
		t.Fatalf("left is %T, want ModFn", cmp.L)
	}
	h, ok := mod.X.(*expr.HashFn)
	if !ok || len(h.Args) != 0 {
		t.Error("MOD arg should be HASH(*)")
	}
}

func TestParseAggregates(t *testing.T) {
	sel := parseSelect(t, "SELECT COUNT(*), SUM(x), AVG(x), MIN(x), MAX(x) FROM t")
	if len(sel.Items) != 5 {
		t.Fatalf("items = %d", len(sel.Items))
	}
	if sel.Items[0].Agg != AggCount || sel.Items[0].Arg != nil {
		t.Error("COUNT(*) not parsed")
	}
	if sel.Items[1].Agg != AggSum || sel.Items[1].Arg == nil {
		t.Error("SUM(x) not parsed")
	}
}

func TestParseGroupBy(t *testing.T) {
	sel := parseSelect(t, "SELECT k, COUNT(*) AS n FROM t GROUP BY k")
	if len(sel.GroupBy) != 1 || sel.GroupBy[0] != "k" {
		t.Errorf("GroupBy = %v", sel.GroupBy)
	}
	if sel.Items[1].Alias != "n" {
		t.Errorf("alias = %q", sel.Items[1].Alias)
	}
}

func TestParseJoin(t *testing.T) {
	sel := parseSelect(t, "SELECT a.x, b.y FROM ta a JOIN tb b ON a.k = b.k WHERE a.x > 0")
	if len(sel.Joins) != 1 {
		t.Fatalf("joins = %d, want 1", len(sel.Joins))
	}
	jc := sel.Joins[0]
	if sel.From.Alias != "a" || jc.Right.Alias != "b" {
		t.Errorf("aliases: %q %q", sel.From.Alias, jc.Right.Alias)
	}
	if jc.LeftCol != "a.k" || jc.RightCol != "b.k" {
		t.Errorf("on: %q = %q", jc.LeftCol, jc.RightCol)
	}
}

func TestParseMultiJoin(t *testing.T) {
	sel := parseSelect(t, "SELECT o.id FROM o JOIN c ON o.cid = c.cid INNER JOIN r ON c.rid = r.rid WHERE o.amt > 5")
	if len(sel.Joins) != 2 {
		t.Fatalf("joins = %d, want 2", len(sel.Joins))
	}
	if sel.Joins[0].Right.Name != "c" || sel.Joins[1].Right.Name != "r" {
		t.Errorf("join targets: %q %q", sel.Joins[0].Right.Name, sel.Joins[1].Right.Name)
	}
	if sel.Joins[1].LeftCol != "c.rid" || sel.Joins[1].RightCol != "r.rid" {
		t.Errorf("second ON: %q = %q", sel.Joins[1].LeftCol, sel.Joins[1].RightCol)
	}
	if sel.Where == nil {
		t.Error("WHERE lost after join list")
	}
}

func TestParseExplain(t *testing.T) {
	stmt, err := Parse("EXPLAIN SELECT grp, COUNT(*) FROM t WHERE v > 3 GROUP BY grp")
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := stmt.(*Explain)
	if !ok {
		t.Fatalf("statement = %T, want *Explain", stmt)
	}
	if ex.Select == nil || ex.Select.From == nil || ex.Select.From.Name != "t" {
		t.Errorf("wrapped select not parsed: %+v", ex.Select)
	}
}

// Vertica UDx invocation with USING PARAMETERS, §3.3's PMMLPredict example.
func TestParseUDxWithParameters(t *testing.T) {
	sql := "SELECT PMMLPredict(sepal_length, sepal_width USING PARAMETERS model_name='regression') FROM IrisTable"
	sel := parseSelect(t, sql)
	fc, ok := sel.Items[0].Expr.(*expr.FuncCall)
	if !ok {
		t.Fatalf("item is %T", sel.Items[0].Expr)
	}
	if fc.Name != "PMMLPREDICT" || len(fc.Args) != 2 {
		t.Errorf("call: %s(%d args)", fc.Name, len(fc.Args))
	}
	if fc.Params["model_name"] != "regression" {
		t.Errorf("params = %v", fc.Params)
	}
}

func TestParseFromlessSelect(t *testing.T) {
	sel := parseSelect(t, "SELECT LAST_EPOCH()")
	if sel.From != nil {
		t.Error("FROM should be nil")
	}
	if _, ok := sel.Items[0].Expr.(*expr.FuncCall); !ok {
		t.Error("LAST_EPOCH() should parse as FuncCall")
	}
}

func TestParseCreateTable(t *testing.T) {
	st, err := Parse("CREATE TABLE d1 (id INTEGER, x FLOAT, s VARCHAR(80), ok BOOLEAN) SEGMENTED BY HASH(id) ALL NODES KSAFE 1")
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTable)
	if ct.Name != "d1" || len(ct.Cols) != 4 || ct.Cols[2].Type != types.Varchar {
		t.Errorf("create: %+v", ct)
	}
	if len(ct.SegCols) != 1 || ct.SegCols[0] != "id" || ct.KSafety != 1 {
		t.Errorf("segmentation: %+v", ct)
	}
}

func TestParseCreateTempTableLike(t *testing.T) {
	st, err := Parse("CREATE TEMP TABLE staging LIKE target")
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTable)
	if !ct.Temp || ct.Like != "target" {
		t.Errorf("create like: %+v", ct)
	}
}

func TestParseUnsegmented(t *testing.T) {
	st, err := Parse("CREATE TABLE u (a INTEGER) UNSEGMENTED ALL NODES")
	if err != nil {
		t.Fatal(err)
	}
	if !st.(*CreateTable).Unsegmented {
		t.Error("UNSEGMENTED not parsed")
	}
}

func TestParseDropAndAlter(t *testing.T) {
	st, err := Parse("DROP TABLE IF EXISTS t")
	if err != nil || !st.(*DropTable).IfExists {
		t.Errorf("drop: %v %v", st, err)
	}
	st, err = Parse("ALTER TABLE a RENAME TO b")
	if err != nil {
		t.Fatal(err)
	}
	ar := st.(*AlterRename)
	if ar.Name != "a" || ar.NewName != "b" {
		t.Errorf("alter: %+v", ar)
	}
}

func TestParseInsert(t *testing.T) {
	st, err := Parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)")
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*Insert)
	if len(ins.Rows) != 2 || len(ins.Cols) != 2 {
		t.Errorf("insert: %+v", ins)
	}
}

func TestParseUpdate(t *testing.T) {
	st, err := Parse("UPDATE s2v_status SET done = TRUE WHERE task_id = 3 AND done = FALSE")
	if err != nil {
		t.Fatal(err)
	}
	up := st.(*Update)
	if up.Table != "s2v_status" || len(up.Set) != 1 || up.Where == nil {
		t.Errorf("update: %+v", up)
	}
}

func TestParseDelete(t *testing.T) {
	st, err := Parse("DELETE FROM t WHERE a < 0")
	if err != nil || st.(*Delete).Where == nil {
		t.Errorf("delete: %v %v", st, err)
	}
}

func TestParseCopy(t *testing.T) {
	st, err := Parse("COPY target FROM STDIN FORMAT AVRO DIRECT REJECTMAX 100")
	if err != nil {
		t.Fatal(err)
	}
	cp := st.(*Copy)
	if !cp.FromStdin || cp.Format != CopyAvro || cp.RejectMax != 100 {
		t.Errorf("copy: %+v", cp)
	}
	st, err = Parse("COPY t FROM LOCAL '/data/part1.csv' FORMAT CSV")
	if err != nil {
		t.Fatal(err)
	}
	cp = st.(*Copy)
	if cp.FromPath != "/data/part1.csv" || cp.Format != CopyCSV {
		t.Errorf("copy file: %+v", cp)
	}
}

func TestParseCreateView(t *testing.T) {
	st, err := Parse("CREATE VIEW v AS SELECT k, COUNT(*) FROM t GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	cv := st.(*CreateView)
	if cv.Name != "v" || cv.Stmt == nil {
		t.Errorf("view: %+v", cv)
	}
	if cv.SelectSQL != "SELECT k, COUNT(*) FROM t GROUP BY k" {
		t.Errorf("view SQL = %q", cv.SelectSQL)
	}
}

func TestParseTxnControl(t *testing.T) {
	for sql, want := range map[string]string{
		"BEGIN": "*vsql.Begin", "COMMIT": "*vsql.Commit", "ROLLBACK": "*vsql.Rollback", "ABORT": "*vsql.Rollback",
	} {
		st, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := typeName(st); got != want {
			t.Errorf("%s -> %s, want %s", sql, got, want)
		}
	}
}

func typeName(v any) string {
	switch v.(type) {
	case *Begin:
		return "*vsql.Begin"
	case *Commit:
		return "*vsql.Commit"
	case *Rollback:
		return "*vsql.Rollback"
	default:
		return "?"
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "SELEC * FROM t", "SELECT FROM t", "SELECT * FROM", "CREATE TABLE",
		"INSERT INTO t VALUES", "COPY t FROM", "SELECT * FROM t WHERE",
		"SELECT 'unterminated FROM t", "SELECT SUM(*) FROM t",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestParseStringEscapes(t *testing.T) {
	sel := parseSelect(t, "SELECT * FROM t WHERE name = 'o''brien'")
	cmp := sel.Where.(*expr.Cmp)
	lit := cmp.R.(*expr.Lit)
	if lit.V.S != "o'brien" {
		t.Errorf("escaped string = %q", lit.V.S)
	}
}

func TestParseComments(t *testing.T) {
	sel := parseSelect(t, "SELECT * -- load everything\nFROM t")
	if sel.From.Name != "t" {
		t.Error("comment handling broken")
	}
}

func TestParseNumberForms(t *testing.T) {
	sel := parseSelect(t, "SELECT * FROM t WHERE x > 1.5e-3 AND a = -2")
	if sel.Where == nil {
		t.Fatal("where nil")
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	if _, err := Parse("SELECT * FROM t;"); err != nil {
		t.Errorf("trailing semicolon should parse: %v", err)
	}
	if _, err := Parse("SELECT * FROM t; SELECT 1"); err == nil {
		t.Error("two statements should fail")
	}
}

// FuzzParse asserts the SQL front end never panics: whatever bytes arrive on
// a connection, Parse returns a statement or an error. Each WHERE clause,
// select item and aggregate argument it parses must also print back to SQL
// that parses to the same tree, and must evaluate compiled as Eval evaluates
// it over fuzzRows. The seed corpus is one statement of every kind the parser
// accepts, plus the inputs hand-written SQL front ends classically mishandle:
// keywords inside quotes, nested parentheses, trailing comments, USING
// PARAMETERS, signs, nested comparisons.
func FuzzParse(f *testing.F) {
	for _, sql := range []string{
		"SELECT a, b AS c FROM t WHERE a >= 1 AND (b < 2.5 OR NOT (s = 'x')) ORDER BY a DESC, c LIMIT 10",
		"AT EPOCH 7 SELECT * FROM t WHERE HASH(id) >= 0 AND HASH(id) < 1073741824",
		"AT EPOCH LATEST SELECT COUNT(*) FROM v WHERE MOD(HASH(*), 4) = 3",
		"SELECT g, COUNT(*), SUM(v + 1), AVG(v), MIN(s), MAX(s) FROM t GROUP BY g",
		"SELECT o.id, c.name FROM o JOIN c ON o.cid = c.cid INNER JOIN x AS y ON o.cid = y.cid WHERE o.id IS NOT NULL",
		"SELECT LAST_EPOCH()",
		"SELECT PMMLPredict(a, b USING PARAMETERS model_name='regression', k=3) FROM iris",
		"EXPLAIN SELECT g, COUNT(*) FROM t WHERE v > 3 GROUP BY g",
		"PROFILE SELECT * FROM t",
		"CREATE TABLE d1 (id INTEGER, x FLOAT, s VARCHAR(80), ok BOOLEAN) SEGMENTED BY HASH(id) ALL NODES KSAFE 1",
		"CREATE TABLE u (a INTEGER) UNSEGMENTED ALL NODES",
		"CREATE TEMP TABLE staging LIKE target",
		"CREATE VIEW v AS SELECT k, COUNT(*) FROM t GROUP BY k",
		"CREATE RESOURCE POOL IF NOT EXISTS etl MEMORYSIZE '100M' MAXCONCURRENCY 8 MAXQUEUEDEPTH NONE QUEUETIMEOUT '750ms'",
		"ALTER RESOURCE POOL etl MAXCONCURRENCY NONE",
		"ALTER TABLE a RENAME TO b",
		"ALTER CLUSTER ADD NODE",
		"ALTER CLUSTER REMOVE NODE 3",
		"DROP TABLE IF EXISTS t",
		"DROP VIEW v",
		"DROP RESOURCE POOL IF EXISTS etl",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (-2, NULL)",
		"INSERT INTO t SELECT * FROM staging",
		"UPDATE s2v_status SET done = TRUE, n = n + 1 WHERE task_id = 3 AND done = FALSE",
		"DELETE FROM t WHERE a < 0",
		"COPY target FROM STDIN FORMAT AVRO DIRECT REJECTMAX 100",
		"COPY t FROM LOCAL '/data/part1.csv' FORMAT CSV",
		"BEGIN TRANSACTION", "COMMIT", "ROLLBACK", "ABORT",
		"SET SESSION RESOURCE_POOL = etl",
		"SET SLOW_QUERY_THRESHOLD = '1ns'",
		"SELECT * FROM t WHERE name = 'SELECT FROM WHERE ''x'' GROUP BY'",
		"SELECT ((((a + (b * (c - 1))) / 2))) FROM t WHERE (((a = 1)))",
		"SELECT * -- load everything\nFROM t -- trailing",
		"SELECT * FROM t WHERE x > 1.5e-3 AND a = -2;",
		"SELECT * FROM t; SELECT 1",
		"SELECT -9223372036854775808, -0.0, 1e5, - -2, -(a) FROM t WHERE b < -0.5",
		"SELECT (a = 1) = TRUE, (s IS NULL) IS NOT NULL, NOT (a) = b, (a < 2) + 1 FROM t WHERE NOT a IS NULL",
		"SELECT a / (b - 2), MOD(c, a), HASH(*), HASH(a, s) FROM t WHERE a <> 0 AND 10 / a > 1 OR s = 'x'",
		// Non-ASCII letters whose Unicode case mapping the byte-wise lexer
		// would not read back: a call's name and a parameter key change only
		// their ASCII letters' case.
		"SELECT fõ(a) FROM t", "SELECT f(a USING PARAMETERS Ъ=1) FROM t",
		"SELECT 'unterminated", "SELECT (", "SELECT a FROM", ")", "", "\x00", "SELECT 1e",
	} {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := Parse(sql)
		if err == nil && stmt == nil {
			t.Fatalf("Parse(%q) returned neither a statement nor an error", sql)
		}
		for _, e := range selectExprs(stmt) {
			back, err := Parse("SELECT * FROM t WHERE " + e.SQL())
			if err != nil {
				t.Fatalf("%q: %s prints as SQL that does not parse: %v", sql, e.SQL(), err)
			}
			if got := back.(*Select).Where; !reflect.DeepEqual(got, e) {
				t.Fatalf("%q: %s parses back as %s", sql, e.SQL(), got.SQL())
			}
			checkCompiledMatchesEval(t, e)
		}
	})
}

// selectExprs lists a SELECT's WHERE clause, select items and aggregate
// arguments (an EXPLAIN's or PROFILE's SELECT too).
func selectExprs(stmt Statement) []expr.Expr {
	var sel *Select
	switch st := stmt.(type) {
	case *Select:
		sel = st
	case *Explain:
		sel = st.Select
	case *Profile:
		sel = st.Select
	default:
		return nil
	}
	out := []expr.Expr{sel.Where}
	for _, it := range sel.Items {
		out = append(out, it.Expr, it.Arg)
	}
	return slices.DeleteFunc(out, func(e expr.Expr) bool { return e == nil })
}

// fuzzRows is the fixed batch fuzzed expressions evaluate over: the columns
// the seeds name, with NULLs, zeros and negatives.
var fuzzRows = func() *storage.Batch {
	schema := types.NewSchema(
		types.Column{Name: "a", T: types.Int64}, types.Column{Name: "b", T: types.Float64},
		types.Column{Name: "c", T: types.Int64}, types.Column{Name: "s", T: types.Varchar},
		types.Column{Name: "v", T: types.Float64}, types.Column{Name: "id", T: types.Int64},
		types.Column{Name: "done", T: types.Bool})
	null := func(t types.Type) types.Value { return types.NullValue(t) }
	rows := []types.Row{
		{types.IntValue(1), types.FloatValue(2.5), types.IntValue(0), types.StringValue("x"), types.FloatValue(-1), types.IntValue(7), types.BoolValue(true)},
		{types.IntValue(0), types.FloatValue(0), types.IntValue(-3), types.StringValue(""), null(types.Float64), types.IntValue(math.MinInt64), types.BoolValue(false)},
		{null(types.Int64), types.FloatValue(-0.5), types.IntValue(math.MaxInt64), null(types.Varchar), types.FloatValue(1e300), null(types.Int64), null(types.Bool)},
		{types.IntValue(-2), null(types.Float64), null(types.Int64), types.StringValue("2.5"), types.FloatValue(3), types.IntValue(2), types.BoolValue(true)},
	}
	cols, err := storage.ColumnsFromRows(rows, schema)
	if err != nil {
		panic(err)
	}
	return &storage.Batch{Schema: schema, Cols: cols, Sel: storage.IdentitySel(len(rows))}
}()

// checkCompiledMatchesEval evaluates e over fuzzRows compiled and per row with
// Eval: both fail or neither does, and then every value matches, kind
// included, in a vector of the type the compiler gives e.
func checkCompiledMatchesEval(t *testing.T, e expr.Expr) {
	b := fuzzRows
	vec, typ := vexec.CompileExpr(e, b.Schema)
	col, err := vec(b, b.Sel)
	var evalErr error
	want := make([]types.Value, len(b.Sel))
	for k, i := range b.Sel {
		if want[k], evalErr = e.Eval(b.Row(int(i), nil), &b.Schema); evalErr != nil {
			break
		}
	}
	if (err == nil) != (evalErr == nil) {
		t.Fatalf("%s: compiled error %v, Eval error %v", e.SQL(), err, evalErr)
	}
	if err != nil {
		return
	}
	if col.Type() != typ {
		t.Fatalf("%s: a %v vector, typed %v", e.SQL(), col.Type(), typ)
	}
	for k, i := range b.Sel {
		got, w := col.Get(int(i)), want[k]
		same := got.Null && w.Null || !got.Null && !w.Null && got.T == w.T &&
			(got == w || got.T == types.Float64 && (got.F == w.F || got.F != got.F && w.F != w.F))
		if !same {
			t.Fatalf("%s row %d: compiled %v (%v), Eval %v (%v)", e.SQL(), i, got, got.T, w, w.T)
		}
	}
}
