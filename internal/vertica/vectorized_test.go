package vertica

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"vsfabric/internal/catalog"
	"vsfabric/internal/expr"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vsql"
)

// parseWhere extracts the WHERE expression from a SELECT over table t.
func parseWhere(t *testing.T, cond string) expr.Expr {
	t.Helper()
	if cond == "" {
		return nil
	}
	st, err := vsql.Parse("SELECT * FROM t WHERE " + cond)
	if err != nil {
		t.Fatalf("parse %q: %v", cond, err)
	}
	return st.(*vsql.Select).Where
}

// buildRandomTable fills table t with n random rows (NULLs included) in three
// INSERTs, three containers a store, with deleted rows in the first two.
func buildRandomTable(t *testing.T, s *Session, rng *rand.Rand, n int) {
	t.Helper()
	s.MustExecute("CREATE TABLE t (id INTEGER, grp INTEGER, val FLOAT, name VARCHAR) SEGMENTED BY HASH(id)")
	names := []string{"alpha", "beta", "gamma", "delta", ""}
	insert := func(lo, hi int) {
		var vals []string
		for i := lo; i < hi; i++ {
			grp := fmt.Sprintf("%d", rng.Intn(10))
			if rng.Intn(10) == 0 {
				grp = "NULL"
			}
			val := fmt.Sprintf("%.2f", rng.Float64()*100)
			if rng.Intn(10) == 0 {
				val = "NULL"
			}
			vals = append(vals, fmt.Sprintf("(%d, %s, %s, '%s')", i, grp, val, names[rng.Intn(len(names))]))
		}
		s.MustExecute("INSERT INTO t VALUES " + strings.Join(vals, ", "))
	}
	insert(0, n/3)
	insert(n/3, 2*n/3)
	s.MustExecute("DELETE FROM t WHERE grp = 7")
	insert(2*n/3, n)
}

// scanRows is how the row-native operators read a base table: a planned scan
// node carrying the needed columns, run through scanBatches, then
// materialized.
func scanRows(s *Session, tbl *catalog.Table, where expr.Expr, vis storage.Visibility, opts scanOpts, needCols ...string) ([]types.Row, int64, types.Schema, error) {
	n := planNode{op: opScan, tbl: tbl}
	opts.cols, n.schema = resolveNeedCols(tbl.Def.Schema, needCols)
	if err := s.planBaseScan(&n, where, opts); err != nil {
		return nil, 0, n.schema, err
	}
	batches, count, err := s.scanBatches(context.Background(), &n, vis, false)
	return storage.Materialize(batches), count, n.schema, err
}

// TestScanTableMatchesRowAtATime is the end-to-end property test: the
// vectorized parallel scan must return exactly the rows, order included, of
// the oracle's row-at-a-time scan + interpreted filter for a spread of
// predicates.
func TestScanTableMatchesRowAtATime(t *testing.T) {
	c := testCluster(t, 4)
	s := sess(t, c, 0)
	rng := rand.New(rand.NewSource(42))
	buildRandomTable(t, s, rng, 900)
	tbl, ok := c.Catalog().Table("t")
	if !ok {
		t.Fatal("table t missing")
	}
	vis := snapshotVis(c)
	preds := []string{
		"",
		"id < 100",
		"grp = 3",
		"100 <= id",
		"val > 50.0 AND grp <> 2",
		"grp IS NULL",
		"val IS NOT NULL AND name = 'beta'",
		"grp = 3 OR grp = 5",
		"NOT (grp = 3)",
		"name < 'c'",
		"id = -1",
		"HASH(id) >= 1000000",
		"HASH(id) < 2000000000 AND grp <= 4",
		"MOD(id, 2) = 0",
	}
	for _, cond := range preds {
		where := parseWhere(t, cond)
		allRows, err := s.scanTableRowAtATime(tbl, vis)
		if err != nil {
			t.Fatalf("reference scan %q: %v", cond, err)
		}
		wantSchema := tbl.Def.Schema
		wantRows, err := filterRows(allRows, wantSchema, where)
		if err != nil {
			t.Fatalf("reference filter %q: %v", cond, err)
		}
		gotRows, _, gotSchema, err := scanRows(s, tbl, where, vis, scanOpts{limit: -1})
		if err != nil {
			t.Fatalf("vectorized scan %q: %v", cond, err)
		}
		if len(gotSchema.Cols) != len(wantSchema.Cols) {
			t.Fatalf("%q: schema width %d vs %d", cond, len(gotSchema.Cols), len(wantSchema.Cols))
		}
		if len(gotRows) != len(wantRows) {
			t.Fatalf("%q: vectorized %d rows, reference %d", cond, len(gotRows), len(wantRows))
		}
		for i := range gotRows {
			for j := range gotRows[i] {
				if types.Compare(gotRows[i][j], wantRows[i][j]) != 0 {
					t.Fatalf("%q row %d: %v vs %v", cond, i, gotRows[i], wantRows[i])
				}
			}
		}
		// countOnly must agree with the materialized row count.
		_, count, _, err := scanRows(s, tbl, where, vis, scanOpts{limit: -1, countOnly: true})
		if err != nil {
			t.Fatalf("count scan %q: %v", cond, err)
		}
		if count != int64(len(wantRows)) {
			t.Fatalf("%q: countOnly = %d, want %d", cond, count, len(wantRows))
		}
	}
}

func TestScanTableNeedCols(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER, val FLOAT, name VARCHAR) SEGMENTED BY HASH(id)")
	s.MustExecute("INSERT INTO t VALUES (1, 1.5, 'a'), (2, 2.5, 'b'), (3, 3.5, 'c')")
	tbl, _ := c.Catalog().Table("t")
	vis := snapshotVis(c)
	rows, _, schema, err := scanRows(s, tbl, parseWhere(t, "val > 2.0"), vis, scanOpts{limit: -1}, "name")
	if err != nil {
		t.Fatal(err)
	}
	if len(schema.Cols) != 1 || schema.Cols[0].Name != "name" {
		t.Fatalf("narrowed schema = %v", schema.Cols)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if len(r) != 1 || r[0].T != types.Varchar {
			t.Fatalf("row %v not narrowed to name column", r)
		}
	}
	// Unresolvable names fall back to the full schema rather than failing.
	rows, _, schema, err = scanRows(s, tbl, nil, vis, scanOpts{limit: -1}, "nope")
	if err != nil {
		t.Fatal(err)
	}
	if len(schema.Cols) != 3 || len(rows) != 3 {
		t.Fatalf("fallback returned %d cols, %d rows", len(schema.Cols), len(rows))
	}
}

func TestLimitPushdown(t *testing.T) {
	c := testCluster(t, 4)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER, grp INTEGER) SEGMENTED BY HASH(id)")
	var vals []string
	for i := 0; i < 500; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", i, i%10))
	}
	s.MustExecute("INSERT INTO t VALUES " + strings.Join(vals, ", "))

	all := s.MustExecute("SELECT id FROM t WHERE grp = 3")
	limited := s.MustExecute("SELECT id FROM t WHERE grp = 3 LIMIT 7")
	if len(limited.Rows) != 7 {
		t.Fatalf("LIMIT 7 returned %d rows", len(limited.Rows))
	}
	// The limited result must be a prefix of the unlimited scan: same
	// deterministic merge order, truncated.
	for i, r := range limited.Rows {
		if r[0].I != all.Rows[i][0].I {
			t.Fatalf("LIMIT row %d = %v, unlimited prefix has %v", i, r, all.Rows[i])
		}
	}
	if res := s.MustExecute("SELECT id FROM t LIMIT 0"); len(res.Rows) != 0 {
		t.Fatalf("LIMIT 0 returned %d rows", len(res.Rows))
	}
	// LIMIT must not truncate the scan when ORDER BY sorts the output...
	res := s.MustExecute("SELECT id FROM t ORDER BY id DESC LIMIT 3")
	if len(res.Rows) != 3 || res.Rows[0][0].I != 499 || res.Rows[2][0].I != 497 {
		t.Fatalf("ORDER BY ... LIMIT = %v", res.Rows)
	}
	// ...or when aggregates consume every row.
	res = s.MustExecute("SELECT COUNT(*) FROM t WHERE grp = 3 LIMIT 1")
	if v, _ := res.Value(); v.I != 50 {
		t.Fatalf("COUNT under LIMIT = %v", v)
	}
	res = s.MustExecute("SELECT grp, COUNT(*) FROM t GROUP BY grp LIMIT 2")
	if len(res.Rows) != 2 {
		t.Fatalf("GROUP BY ... LIMIT 2 returned %d rows", len(res.Rows))
	}
}

func TestCountPushdown(t *testing.T) {
	c := testCluster(t, 4)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER, grp INTEGER) SEGMENTED BY HASH(id)")
	var vals []string
	for i := 0; i < 300; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", i, i%10))
	}
	s.MustExecute("INSERT INTO t VALUES " + strings.Join(vals, ", "))
	s.MustExecute("INSERT INTO t VALUES (300, 0), (301, 1)")
	s.MustExecute("DELETE FROM t WHERE id >= 290 AND id < 300")

	checks := []struct {
		sql  string
		want int64
	}{
		{"SELECT COUNT(*) FROM t", 292},
		{"SELECT COUNT(*) FROM t WHERE grp = 3", 29},
		{"SELECT COUNT(*) FROM t WHERE id < 0", 0},
		{"SELECT COUNT(*) AS n FROM t WHERE grp <= 1", 60},
	}
	for _, ck := range checks {
		res := s.MustExecute(ck.sql)
		v, err := res.Value()
		if err != nil || v.I != ck.want {
			t.Errorf("%s = %v (err %v), want %d", ck.sql, v, err, ck.want)
		}
	}
	// The aliased count keeps its alias as the output column name.
	res := s.MustExecute("SELECT COUNT(*) AS n FROM t")
	if res.Schema.Cols[0].Name != "n" {
		t.Errorf("aliased COUNT column = %q", res.Schema.Cols[0].Name)
	}
	res = s.MustExecute("SELECT COUNT(*) FROM t")
	if res.Schema.Cols[0].Name != "count" {
		t.Errorf("default COUNT column = %q", res.Schema.Cols[0].Name)
	}
	if res := s.MustExecute("SELECT COUNT(*) FROM t LIMIT 0"); len(res.Rows) != 0 {
		t.Errorf("COUNT ... LIMIT 0 returned rows")
	}
	// System-table counts take the regular path but must still be right.
	res = s.MustExecute("SELECT COUNT(*) FROM v_catalog.tables")
	if v, _ := res.Value(); v.I != 1 {
		t.Errorf("v_catalog.tables count = %v", v)
	}
}

// TestSelectShapesMatchOracle runs the scan-level pushdown shapes (filter,
// COUNT, GROUP BY, LIMIT) and diffs each against the oracle.
func TestSelectShapesMatchOracle(t *testing.T) {
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER, grp INTEGER) SEGMENTED BY HASH(id)")
	var vals []string
	for i := 0; i < 200; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", i, i%7))
	}
	s.MustExecute("INSERT INTO t VALUES " + strings.Join(vals, ", "))
	for _, q := range []string{
		"SELECT id FROM t WHERE grp = 2",
		"SELECT COUNT(*) FROM t WHERE id >= 100",
		"SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp",
		"SELECT id FROM t WHERE grp = 5 LIMIT 4",
		"SELECT COUNT(*) AS n FROM t WHERE id < 50 ORDER BY n LIMIT 1",
		"SELECT COUNT(*) FROM t LIMIT 0",
		// FROM-less: the input is one row of no columns, aggregated or not.
		"SELECT COUNT(*)",
		"SELECT SUM(1)",
		"SELECT COUNT(*), MAX(2 * 3) AS m ORDER BY m LIMIT 1",
		"SELECT 1 + 2",
	} {
		sameResults(t, q, s.MustExecute(q), oracleSelect(t, s, q))
	}
	// Everything above the scan: joins, filters and aggregates over join
	// output, views and system tables, on NULL-heavy data written by several
	// INSERTs. The oracle's operators are row-at-a-time references that
	// production does not run.
	shapesFixture(t, c, s)
	for _, q := range []string{
		// Expression aggregate over a join: interpreted argument, typed grouping.
		"SELECT d.label, SUM(m.v + 1), COUNT(*) FROM m JOIN d ON m.k = d.k GROUP BY d.label ORDER BY d.label",
		// Aggregate and WHERE over a view, and over a system table.
		"SELECT k, COUNT(*), SUM(v2), AVG(v2) FROM mv WHERE v2 > 10 GROUP BY k ORDER BY k",
		"SELECT node_state, COUNT(*), MAX(node_id) FROM v_monitor.node_states WHERE node_id >= 1 GROUP BY node_state ORDER BY node_state",
		"SELECT node_name FROM v_monitor.node_states WHERE node_id <> 1",
		// NULL join keys never match; a post-join IS NULL filter sees the rest.
		"SELECT m.id, d.label FROM m JOIN d ON m.k = d.k WHERE m.v IS NULL",
		"SELECT m.id FROM m JOIN d ON m.k = d.k WHERE d.w IS NULL AND m.label IS NOT NULL",
		// OR across both join sides: nothing to split, one post-join filter.
		"SELECT m.id, d.w FROM m JOIN d ON m.k = d.k WHERE m.id < 20 OR d.w > 6",
		// Self-join with ORDER BY.
		"SELECT a.id, b.id FROM m a JOIN m b ON a.k = b.k WHERE a.id < 12 ORDER BY a.id, b.id",
		// View joined to a table, and a table to a view.
		"SELECT mv.id, d.label, mv.v2 FROM mv JOIN d ON mv.k = d.k",
		"SELECT d.k, mv.id FROM d JOIN mv ON d.k = mv.k WHERE mv.v2 IS NOT NULL ORDER BY d.k, mv.id",
		// A join with a plain select list, `*` included.
		"SELECT * FROM m JOIN d ON m.k = d.k",
		"SELECT d.label AS dl, m.id, m.id AS again FROM m JOIN d ON m.k = d.k WHERE m.id >= 40 LIMIT 7",
		// LIMIT 0 after a filter, an aggregate and a join.
		"SELECT id FROM m WHERE k = 1 LIMIT 0",
		"SELECT k, COUNT(*) FROM m GROUP BY k LIMIT 0",
		"SELECT m.id FROM m JOIN d ON m.k = d.k WHERE m.id > 3 LIMIT 0",
		// MIN/MAX over VARCHAR.
		"SELECT k, MIN(label), MAX(label) FROM m GROUP BY k ORDER BY k",
		"SELECT MIN(d.label), MAX(m.label) FROM m JOIN d ON m.k = d.k",
		// A view column declared FLOAT whose values mix INTEGER and FLOAT,
		// aggregated — through the view and as a bare expression argument.
		"SELECT k, SUM(v2), MIN(v2), MAX(v2), AVG(v2), COUNT(v2) FROM hv GROUP BY k ORDER BY k",
		"SELECT k, SUM(HALF(id) * 2), MIN(HALF(id) * 2), MAX(HALF(id) * 2) FROM m GROUP BY k ORDER BY k",
		// Several interpreted arguments share one boxed row holding only the
		// columns they name; HASH(*) names none and reads them all.
		"SELECT k, SUM(v + 1), MAX(id * 2), AVG(v + id), COUNT(label) FROM m GROUP BY k ORDER BY k",
		"SELECT k, MAX(HASH(*)), MIN(id + 1) FROM m GROUP BY k ORDER BY k",
		// HASH over derived batches: a view's rows and a join's rows are not
		// what the base table's stored hashes were computed from.
		"SELECT * FROM mv WHERE HASH(*) >= 2147483648",
		"SELECT id FROM mv WHERE HASH(*) < 2147483648 AND k IS NOT NULL",
		"SELECT * FROM dv WHERE HASH(*) >= 2147483648",
		"SELECT m.id, d.label FROM m JOIN d ON m.k = d.k WHERE HASH(m.id) >= 2147483648",
		"SELECT m.id FROM m JOIN d ON m.k = d.k WHERE HASH(*) < 2147483648",
		"SELECT node_id FROM v_monitor.node_states WHERE HASH(*) >= 0",
	} {
		got := s.MustExecute(q)
		if len(got.Rows) == 0 && !strings.Contains(q, "LIMIT 0") {
			t.Fatalf("%s: empty result, fixture broken", q)
		}
		sameResults(t, q, got, oracleSelect(t, s, q))
	}
	// A HASH filter over a view must really filter, and by the view's rows.
	if all, half := s.MustExecute("SELECT * FROM mv"), s.MustExecute("SELECT * FROM mv WHERE HASH(*) >= 2147483648"); len(half.Rows) == 0 || len(half.Rows) >= len(all.Rows) {
		t.Fatalf("HASH(*) over a view kept %d of %d rows", len(half.Rows), len(all.Rows))
	}
	// A join with a plain select list leaves the engine as column batches.
	col, err := s.ExecuteColumnar(context.Background(), "SELECT m.id, d.label FROM m JOIN d ON m.k = d.k WHERE m.id < 50")
	if err != nil || col.Rows != nil || col.Batches == nil {
		t.Fatalf("join result: %d rows, %d batches, %v; want batches only", len(col.Rows), len(col.Batches), err)
	}

	// Sort is a plan node every shape passes through: the COUNT(*) pushdown
	// rejects an unknown ORDER BY key exactly as the view path and the oracle do.
	s.MustExecute("CREATE VIEW tv AS SELECT id, grp FROM t")
	for _, q := range []string{"SELECT COUNT(*) FROM t ORDER BY nosuch", "SELECT COUNT(*) FROM tv ORDER BY nosuch"} {
		stmt, err := vsql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		_, _, want := oracleRows(s, stmt.(*vsql.Select), snapshotVis(c))
		if _, err = s.Execute(q); err == nil || want == nil || err.Error() != want.Error() ||
			!strings.Contains(err.Error(), `ORDER BY column "nosuch" not in result`) {
			t.Fatalf("%s: engine %v, oracle %v", q, err, want)
		}
	}
}

// shapesFixture builds the relations the join/filter/aggregate oracle cases
// and the seeded generator run over: a NULL-heavy fact table m, an unsegmented
// dimension d (unique keys, one NULL), a segmented dimension e with duplicate
// and unmatched keys, and views over them — mv (filter + arithmetic column),
// dv (over the unsegmented table, whose stored hashes are whole-row hashes of
// d, not of dv) and hv (a FLOAT-declared column whose values mix INTEGER and
// FLOAT). m and e are each written by two INSERTs.
func shapesFixture(t *testing.T, c *Cluster, s *Session) {
	t.Helper()
	rng := rand.New(rand.NewSource(16))
	s.MustExecute("CREATE TABLE m (id INTEGER, k INTEGER, v FLOAT, label VARCHAR) SEGMENTED BY HASH(id)")
	s.MustExecute("CREATE TABLE d (k INTEGER, label VARCHAR, w INTEGER)")
	s.MustExecute("CREATE TABLE e (k INTEGER, tag VARCHAR, w INTEGER) SEGMENTED BY HASH(k)")
	c.RegisterUDx("HALF", func(args []types.Value, _ map[string]string) (types.Value, error) {
		if n := args[0].AsInt(); args[0].Null || n%2 == 0 {
			return types.IntValue(n / 2), nil
		}
		return types.FloatValue(float64(args[0].AsInt()) / 2), nil
	})
	s.MustExecute("CREATE VIEW mv AS SELECT id, k, v * 2 AS v2, label FROM m WHERE id < 90")
	s.MustExecute("CREATE VIEW dv AS SELECT label, k FROM d")
	s.MustExecute("CREATE VIEW hv AS SELECT k, HALF(id) * 2 AS v2 FROM m")
	orNull := func(p int, v string) string {
		if rng.Intn(p) == 0 {
			return "NULL"
		}
		return v
	}
	labels := []string{"'ant'", "'bee'", "'cat'", "'dog'", "'eel'"}
	var mrows, erows, drows []string
	for i := 0; i < 120; i++ {
		// Halves: every float sum is exact in any accumulation order, so a
		// reordered join cannot differ from the oracle in the last bit.
		mrows = append(mrows, fmt.Sprintf("(%d, %s, %s, %s)", i, orNull(4, fmt.Sprint(rng.Intn(10))),
			orNull(4, fmt.Sprintf("%.1f", float64(rng.Intn(80))/2)), orNull(5, labels[rng.Intn(len(labels))])))
	}
	for i := 0; i < 26; i++ {
		erows = append(erows, fmt.Sprintf("(%s, 'tag%d', %s)", orNull(6, fmt.Sprint(rng.Intn(13))), i%7, orNull(5, fmt.Sprint(rng.Intn(9)))))
	}
	for k := 0; k < 10; k++ {
		drows = append(drows, fmt.Sprintf("(%d, %s, %s)", k, orNull(6, labels[k%len(labels)]), orNull(4, fmt.Sprint(k))))
	}
	drows = append(drows, "(NULL, 'nokey', 99)")
	s.MustExecute("INSERT INTO d VALUES " + strings.Join(drows, ", "))
	s.MustExecute("INSERT INTO m VALUES " + strings.Join(mrows[:60], ", "))
	s.MustExecute("INSERT INTO e VALUES " + strings.Join(erows[:13], ", "))
	s.MustExecute("INSERT INTO m VALUES " + strings.Join(mrows[60:], ", "))
	s.MustExecute("INSERT INTO e VALUES " + strings.Join(erows[13:], ", "))
}

func TestHashJoinTypedKeys(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE a (k INTEGER, tag VARCHAR) SEGMENTED BY HASH(k)")
	s.MustExecute("CREATE TABLE b (k VARCHAR, note VARCHAR) SEGMENTED BY HASH(k)")
	s.MustExecute("INSERT INTO a VALUES (1, 'int-one')")
	s.MustExecute("INSERT INTO b VALUES ('1', 'string-one')")
	// INTEGER 1 and VARCHAR '1' are different values: no join output. (The
	// old string-rendered build keys made them collide.)
	res := s.MustExecute("SELECT a.tag, b.note FROM a JOIN b ON a.k = b.k")
	if len(res.Rows) != 0 {
		t.Fatalf("INTEGER joined VARCHAR: %v", res.Rows)
	}
	// INTEGER 1 and FLOAT 1.0 are equal per types.Compare: they must join.
	s.MustExecute("CREATE TABLE f (k FLOAT, note VARCHAR) SEGMENTED BY HASH(k)")
	s.MustExecute("INSERT INTO f VALUES (1.0, 'float-one'), (2.5, 'other')")
	res = s.MustExecute("SELECT a.tag, f.note FROM a JOIN f ON a.k = f.k")
	if len(res.Rows) != 1 || res.Rows[0][1].S != "float-one" {
		t.Fatalf("INTEGER vs FLOAT join = %v", res.Rows)
	}
	// NULL keys never join.
	s.MustExecute("INSERT INTO a VALUES (NULL, 'null-key')")
	s.MustExecute("INSERT INTO f VALUES (NULL, 'null-key')")
	res = s.MustExecute("SELECT a.tag, f.note FROM a JOIN f ON a.k = f.k")
	if len(res.Rows) != 1 {
		t.Fatalf("NULL keys joined: %v", res.Rows)
	}
}

// TestConcurrentScansAndDML hammers the vectorized scan path from several
// sessions while another session inserts and deletes. Run under -race via make
// check.
func TestConcurrentScansAndDML(t *testing.T) {
	c := testCluster(t, 4)
	w := sess(t, c, 0)
	w.MustExecute("CREATE TABLE t (id INTEGER, grp INTEGER) SEGMENTED BY HASH(id)")
	var vals []string
	for i := 0; i < 1000; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", i, i%10))
	}
	w.MustExecute("INSERT INTO t VALUES " + strings.Join(vals, ", "))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			rs, err := c.Connect(node)
			if err != nil {
				t.Error(err)
				return
			}
			defer rs.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := rs.Execute("SELECT id FROM t WHERE grp = 3"); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if _, err := rs.Execute("SELECT COUNT(*) FROM t WHERE id < 500"); err != nil {
					t.Errorf("reader count: %v", err)
					return
				}
			}
		}(r % c.NumNodes())
	}
	for i := 0; i < 30; i++ {
		w.MustExecute(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", 1000+i, i%10))
		w.MustExecute(fmt.Sprintf("DELETE FROM t WHERE id = %d", i*3))
	}
	close(stop)
	wg.Wait()
}
