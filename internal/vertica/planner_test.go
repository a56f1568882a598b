package vertica

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"vsfabric/internal/types"
)

// prunableTable creates table pz whose ROS containers have disjoint id
// ranges, so an id predicate can prune whole containers via zone maps.
func prunableTable(t *testing.T, s *Session) {
	t.Helper()
	s.MustExecute("CREATE TABLE pz (id INTEGER, val FLOAT) SEGMENTED BY HASH(id)")
	for lo := 0; lo < 300; lo += 100 {
		var vals []string
		for i := lo; i < lo+100; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d.5)", i, i))
		}
		s.MustExecute("INSERT INTO pz VALUES " + strings.Join(vals, ", "))
	}
}

func sameResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows vs %d\n got %v\nwant %v", label, len(got.Rows), len(want.Rows), got.Rows, want.Rows)
	}
	for i := range got.Rows {
		if len(got.Rows[i]) != len(want.Rows[i]) {
			t.Fatalf("%s row %d: width %d vs %d", label, i, len(got.Rows[i]), len(want.Rows[i]))
		}
		for j := range got.Rows[i] {
			g, w := got.Rows[i][j], want.Rows[i][j]
			if g.Null != w.Null || (!g.Null && types.Compare(g, w) != 0) {
				t.Fatalf("%s row %d col %d: %v vs %v", label, i, j, got.Rows[i], want.Rows[i])
			}
		}
	}
}

func TestExplainScanPruning(t *testing.T) {
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	prunableTable(t, s)

	res := s.MustExecute("EXPLAIN SELECT val FROM pz WHERE id >= 200")
	wantCols := []string{"step", "operator", "target", "est_rows", "containers", "pruned", "detail"}
	for i, w := range wantCols {
		if res.Schema.Cols[i].Name != w {
			t.Fatalf("explain col %d = %q, want %q", i, res.Schema.Cols[i].Name, w)
		}
	}
	// A plain scan is two operators, as PROFILE prints them: scan, project.
	if len(res.Rows) != 2 || res.Rows[1][1].S != "project" {
		t.Fatalf("explain rows: %v", res.Rows)
	}
	scan := res.Rows[0]
	if scan[1].S != "scan" || scan[2].S != "pz" {
		t.Fatalf("scan row: %v", scan)
	}
	if scan[4].I == 0 {
		t.Fatal("explain reports zero containers on a moved-out table")
	}
	// Containers holding ids 0..99 and 100..199 are provably excluded.
	if scan[5].I == 0 {
		t.Fatalf("explain pruned no containers: %v", scan)
	}
	if scan[5].I >= scan[4].I {
		t.Fatalf("pruned %d of %d containers; the 200..299 containers must survive", scan[5].I, scan[4].I)
	}
	if !strings.Contains(scan[6].S, "zone maps prune") {
		t.Fatalf("scan detail %q missing zone-map note", scan[6].S)
	}

	// EXPLAIN does not execute: no query_plans record for the SELECT itself.
	res = s.MustExecute("EXPLAIN SELECT COUNT(*) FROM pz")
	if len(res.Rows) != 1 || !strings.Contains(res.Rows[0][6].S, "count pushdown") {
		t.Fatalf("COUNT(*) explain: %v", res.Rows)
	}

	res = s.MustExecute("EXPLAIN SELECT id FROM pz WHERE id > 5 GROUP BY id ORDER BY id LIMIT 3")
	var ops []string
	for _, r := range res.Rows {
		ops = append(ops, r[1].S)
	}
	if got := strings.Join(ops, ","); got != "scan,group-by,sort,limit" {
		t.Fatalf("operators = %s", got)
	}
	// The planner does not size a group-by's output: est_rows is NULL, not
	// the number of GROUP BY keys.
	if grp := res.Rows[1]; !grp[3].Null {
		t.Fatalf("group-by est_rows = %v, want NULL", grp[3])
	}

	// EXPLAIN plans exactly what would run, so a statement that cannot run has
	// no plan: it fails with the executor's error.
	for _, q := range []string{
		"SELECT nosuch FROM pz",
		"SELECT id FROM nosuch",
		"SELECT id FROM pz JOIN nosuch ON pz.id = nosuch.id",
		"SELECT id FROM pz ORDER BY nosuch",
		"SELECT COUNT(*) FROM pz ORDER BY nosuch",
		"SELECT id, COUNT(*) FROM pz",
	} {
		_, runErr := s.Execute(q)
		_, planErr := s.Execute("EXPLAIN " + q)
		if runErr == nil || planErr == nil || runErr.Error() != planErr.Error() {
			t.Fatalf("%s:\n run     %v\n EXPLAIN %v", q, runErr, planErr)
		}
	}
}

// TestNegativeLiterals: a minus sign before a number is part of the literal,
// not 0 - x. So a connector-style pushdown with a negative bound keeps its
// kernel and its zone-map pruning, the smallest INTEGER is an INTEGER, and
// -0.0 keeps its sign; a minus before anything else is still arithmetic.
func TestNegativeLiterals(t *testing.T) {
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	prunableTable(t, s)

	scan := s.MustExecute("EXPLAIN SELECT * FROM pz WHERE val < -0.5").Rows[0]
	if !strings.Contains(scan[6].S, "1 kernels") || scan[4].I == 0 || scan[5].I != scan[4].I {
		t.Fatalf("val < -0.5 over values >= 0.5: %v, want 1 kernel and every container pruned", scan)
	}
	s.MustExecute("CREATE TABLE neg (i INTEGER)")
	s.MustExecute("INSERT INTO neg VALUES (-9223372036854775807)")
	if n := s.MustExecute("SELECT COUNT(*) FROM neg WHERE i > -9223372036854775808").Rows[0][0].I; n != 1 {
		t.Fatalf("i > -9223372036854775808 counts %d rows of i = -9223372036854775807, want 1", n)
	}
	res := s.MustExecute("SELECT -0.0, -9223372036854775808, -(id) FROM pz WHERE id = 3")
	if z := res.Rows[0][0]; z.T != types.Float64 || !math.Signbit(z.F) {
		t.Fatalf("SELECT -0.0 = %v (%v), want FLOAT negative zero", z, z.T)
	}
	if m := res.Rows[0][1]; m.T != types.Int64 || m.I != math.MinInt64 {
		t.Fatalf("SELECT -9223372036854775808 = %v (%v), want the INTEGER", m, m.T)
	}
	if neg := res.Rows[0][2]; neg.T != types.Int64 || neg.I != -3 {
		t.Fatalf("-(id) = %v (%v), want INTEGER -3", neg, neg.T)
	}
}

func TestExplainJoinOrder(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	sizes := map[string]int{"big": 400, "mid": 60, "small": 8}
	for name, n := range sizes {
		s.MustExecute(fmt.Sprintf("CREATE TABLE %s (id INTEGER, tag VARCHAR) SEGMENTED BY HASH(id)", name))
		var vals []string
		for i := 0; i < n; i++ {
			vals = append(vals, fmt.Sprintf("(%d, '%s%d')", i, name, i))
		}
		s.MustExecute(fmt.Sprintf("INSERT INTO %s VALUES %s", name, strings.Join(vals, ", ")))
	}

	// Written mid-first; the planner must reorder to join small before mid.
	q := "SELECT big.tag FROM big JOIN mid ON big.id = mid.id JOIN small ON big.id = small.id"
	res := s.MustExecute("EXPLAIN " + q)
	var joins []string
	for _, r := range res.Rows {
		if r[1].S == "join" {
			joins = append(joins, r[2].S)
		}
	}
	if len(joins) != 2 || joins[0] != "small" || joins[1] != "mid" {
		t.Fatalf("join order = %v, want [small mid]", joins)
	}
	for _, r := range res.Rows {
		if r[1].S == "join" && !strings.Contains(r[6].S, "build right side") {
			t.Fatalf("join against a smaller right side should build right: %v", r)
		}
	}

	// An unsized relation (a view, a system table) has no estimate: est_rows
	// is SQL NULL on its scan and from the join attaching it on, never the
	// planner's internal "unknown" sentinel.
	s.MustExecute("CREATE VIEW smallv AS SELECT id, tag FROM small")
	res = s.MustExecute("EXPLAIN SELECT big.tag FROM big JOIN smallv ON big.id = smallv.id JOIN mid ON big.id = mid.id")
	nulls := 0
	for _, r := range res.Rows {
		unsized := r[2].S == "smallv" // the view's scan and the join attaching it
		if (unsized && !r[3].Null) || (r[1].S == "scan" && !unsized && r[3].Null) || r[3].I >= 1<<40 {
			t.Fatalf("est_rows of %v", r)
		}
		if unsized {
			nulls++
		}
	}
	if nulls != 2 {
		t.Fatalf("want the view's scan and its join unsized: %v", res.Rows)
	}
	if res = s.MustExecute("EXPLAIN SELECT * FROM v_catalog.tables"); !res.Rows[0][3].Null {
		t.Fatalf("system table est_rows = %v, want NULL", res.Rows[0][3])
	}

	// The executed plan must agree with EXPLAIN's order.
	s.MustExecute(q)
	plans := s.MustExecute("SELECT * FROM v_monitor.query_plans")
	last := plans.Rows[len(plans.Rows)-1]
	order := last[3].S
	if order != "big JOIN small JOIN mid" {
		t.Fatalf("executed join order = %q", order)
	}
}

func TestQueryPlansMonitor(t *testing.T) {
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	prunableTable(t, s)

	q := "SELECT val FROM pz WHERE id >= 200"
	got := s.MustExecute(q)
	plans := s.MustExecute("SELECT * FROM v_monitor.query_plans")
	wantCols := []string{"plan_id", "query", "anchor_table", "join_order", "estimated_rows",
		"actual_rows", "containers_scanned", "containers_pruned", "pushdown", "vectorized", "epoch"}
	for i, w := range wantCols {
		if plans.Schema.Cols[i].Name != w {
			t.Fatalf("query_plans col %d = %q, want %q", i, plans.Schema.Cols[i].Name, w)
		}
	}
	var rec types.Row
	for _, r := range plans.Rows {
		if r[1].S == q {
			rec = r
		}
	}
	if rec == nil {
		t.Fatalf("no query_plans record for %q: %v", q, plans.Rows)
	}
	if rec[2].S != "pz" {
		t.Fatalf("anchor_table = %q", rec[2].S)
	}
	if rec[5].I != int64(len(got.Rows)) {
		t.Fatalf("actual_rows = %d, want %d", rec[5].I, len(got.Rows))
	}
	if rec[7].I == 0 {
		t.Fatal("containers_pruned = 0; zone maps should have pruned the low containers")
	}
	if rec[6].I == 0 {
		t.Fatal("containers_scanned = 0")
	}
	if !rec[9].B {
		t.Fatal("vectorized = false on the vectorized path")
	}

	// COUNT(*) pushdown and GROUP BY pushdown are labeled.
	s.MustExecute("SELECT COUNT(*) FROM pz")
	s.MustExecute("SELECT id, COUNT(*) FROM pz GROUP BY id LIMIT 1")
	plans = s.MustExecute("SELECT * FROM v_monitor.query_plans")
	var sawCount, sawGroupBy bool
	for _, r := range plans.Rows {
		switch r[8].S {
		case "count":
			sawCount = true
		case "group-by":
			sawGroupBy = true
		}
	}
	if !sawCount || !sawGroupBy {
		t.Fatalf("pushdown labels missing: count=%v group-by=%v", sawCount, sawGroupBy)
	}
}

// TestZoneMapPruningSound is the acceptance check: with pruning skipping
// containers, results still equal the oracle, which knows no zone maps.
func TestZoneMapPruningSound(t *testing.T) {
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	prunableTable(t, s)

	for _, q := range []string{
		"SELECT val FROM pz WHERE id >= 200 ORDER BY val",
		"SELECT COUNT(*) FROM pz WHERE id < 100",
		"SELECT id, SUM(val) FROM pz WHERE id >= 250 GROUP BY id ORDER BY id",
		"SELECT val FROM pz WHERE id = 150",
		"SELECT val FROM pz WHERE id > 1000",
	} {
		sameResults(t, q, s.MustExecute(q), oracleSelect(t, s, q))
	}

	// A NaN first in its container: the kernels call NaN equal to every
	// literal, so its zone map must not shrink to [NaN, NaN] and prune the
	// container's other rows away.
	s.MustExecute("CREATE TABLE pznan (x FLOAT) UNSEGMENTED ALL NODES")
	if _, err := s.CopyFrom("COPY pznan FROM STDIN FORMAT CSV DIRECT", strings.NewReader("NaN\n0.1\n0.9\n")); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT COUNT(*) FROM pznan WHERE x < 0.5",
		"SELECT COUNT(*) FROM pznan WHERE x > 0.5",
		"SELECT COUNT(*) FROM pznan WHERE x = 7",
		"SELECT COUNT(*) FROM pznan WHERE x <> 0.1",
	} {
		sameResults(t, q, s.MustExecute(q), oracleSelect(t, s, q))
	}

	plans := s.MustExecute("SELECT containers_pruned FROM v_monitor.query_plans")
	var pruned int64
	for _, r := range plans.Rows {
		pruned += r[0].I
	}
	if pruned == 0 {
		t.Error("containers_pruned = 0 across all plans: the predicates never exercised pruning")
	}
}

// TestZoneMapsSurviveRebalance: ALTER CLUSTER ADD NODE rebuilds every store
// of a moved table from exported row versions; the imported containers must
// carry zone maps like any other, so a prunable predicate still prunes.
func TestZoneMapsSurviveRebalance(t *testing.T) {
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	prunableTable(t, s)
	s.MustExecute("ALTER CLUSTER ADD NODE")

	const q = "SELECT val FROM pz WHERE id >= 200 ORDER BY val"
	sameResults(t, q, s.MustExecute(q), oracleSelect(t, s, q))
	plans := s.MustExecute("SELECT containers_pruned FROM v_monitor.query_plans").Rows
	if pruned := plans[len(plans)-1][0].I; pruned == 0 {
		t.Fatal("containers_pruned = 0 after ADD NODE: the rebalanced containers lost their zone maps")
	}
}

func TestProfileGroupBy(t *testing.T) {
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	prunableTable(t, s)

	res := s.MustExecute("PROFILE SELECT id, COUNT(*), SUM(val) FROM pz GROUP BY id")
	var grp types.Row
	for _, r := range res.Rows {
		if r[0].S == "group-by" {
			grp = r
		}
	}
	if grp == nil {
		t.Fatalf("no group-by operator row: %v", res.Rows)
	}
	if !strings.Contains(grp[6].S, "vectorized hash aggregation") {
		t.Fatalf("group-by detail = %q", grp[6].S)
	}
	if grp[1].I != 300 || grp[2].I != 300 {
		t.Fatalf("group-by rows_in=%d rows_out=%d, want 300/300", grp[1].I, grp[2].I)
	}
	if grp[3].I != 300 || grp[4].I != 0 {
		t.Fatalf("group-by vectorized_rows=%d residual_rows=%d", grp[3].I, grp[4].I)
	}

	// An expression argument runs in the same kernel: its rows are interpreted
	// (residual), the grouping and accumulation are not a second aggregator.
	// Two interpreted arguments still interpret each row once.
	for _, q := range []string{
		"PROFILE SELECT id, SUM(val + 1.0) FROM pz GROUP BY id",
		"PROFILE SELECT id, SUM(val + 1.0), MAX(val * 2) FROM pz WHERE id >= 100 GROUP BY id",
	} {
		res = s.MustExecute(q)
		grp = nil
		for _, r := range res.Rows {
			if r[0].S == "group-by" {
				grp = r
			}
		}
		if grp == nil || !strings.Contains(grp[6].S, "vectorized hash aggregation") {
			t.Fatalf("%s: group-by row = %v", q, grp)
		}
		if in := grp[1].I; in == 0 || grp[3].I != 0 || grp[4].I != in {
			t.Fatalf("%s: rows_in=%d vectorized_rows=%d residual_rows=%d, want every row interpreted once", q, in, grp[3].I, grp[4].I)
		}
	}
}

// TestAggEquivalenceProperty is the seeded equivalence suite: the vectorized
// aggregation path must return exactly what the oracle returns — NULL group keys, empty groups, mixed INT/FLOAT
// aggregates, duplicate join keys.
func TestAggEquivalenceProperty(t *testing.T) {
	queries := []string{
		// NULL group keys and mixed INT/FLOAT aggregates.
		"SELECT grp, COUNT(*), SUM(val), MIN(val), MAX(val), AVG(val) FROM t GROUP BY grp ORDER BY grp",
		"SELECT grp, SUM(id), MIN(id), MAX(id), AVG(id) FROM t GROUP BY grp ORDER BY grp",
		// Multi-column (generic) group keys.
		"SELECT grp, name, COUNT(*) FROM t GROUP BY grp, name ORDER BY grp, name",
		// Aggregates of a nullable column: COUNT(col) skips NULLs.
		"SELECT grp, COUNT(val) FROM t GROUP BY grp ORDER BY grp",
		// Empty input: zero groups with GROUP BY, one NULL-ish row without.
		"SELECT grp, COUNT(*) FROM t WHERE id < 0 GROUP BY grp",
		"SELECT COUNT(*), SUM(val), MIN(name) FROM t WHERE id < 0",
		// Global aggregates over everything.
		"SELECT COUNT(*), COUNT(grp), SUM(id), AVG(val) FROM t",
		// Predicate + aggregation (exercises pruning + filtering upstream).
		"SELECT grp, SUM(val) FROM t WHERE id >= 300 GROUP BY grp ORDER BY grp",
		"SELECT name, MIN(val), MAX(val) FROM t WHERE grp IS NOT NULL GROUP BY name ORDER BY name",
		"SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp LIMIT 3",
		// A single VARCHAR key, grouped by the string itself: NULL names
		// beside the string 'NULL' and '', in first-seen order; one group;
		// many groups; only the NULL group.
		"SELECT name, COUNT(*), COUNT(val), SUM(val), MIN(val), MAX(val), AVG(val) FROM v GROUP BY name",
		"SELECT name, SUM(id), MIN(id), MAX(id), MIN(tag), MAX(tag) FROM v GROUP BY name ORDER BY name",
		"SELECT one, COUNT(*), SUM(val), AVG(id) FROM v GROUP BY one",
		"SELECT tag, COUNT(*), SUM(val), MAX(name) FROM v GROUP BY tag",
		"SELECT name, COUNT(*), SUM(val) FROM v WHERE name IS NULL GROUP BY name",
	}
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	buildRandomTable(t, s, rand.New(rand.NewSource(7)), 600)
	s.MustExecute("CREATE TABLE v (id INTEGER, name VARCHAR, tag VARCHAR, one VARCHAR, val FLOAT) SEGMENTED BY HASH(id)")
	rng := rand.New(rand.NewSource(13))
	names := []string{"NULL", "'NULL'", "''", "'alpha'", "'beta'"}
	for part := 0; part < 2; part++ {
		var rows []string
		for i := 0; i < 300; i++ {
			val := fmt.Sprintf("%.3f", rng.Float64()*100)
			if rng.Intn(8) == 0 {
				val = "NULL"
			}
			rows = append(rows, fmt.Sprintf("(%d, %s, 'tag%d', 'same', %s)",
				part*300+i, names[rng.Intn(len(names))], rng.Intn(200), val))
		}
		s.MustExecute("INSERT INTO v VALUES " + strings.Join(rows, ", "))
	}
	for _, q := range queries {
		sameResults(t, q, s.MustExecute(q), oracleSelect(t, s, q))
	}
}

// TestJoinEquivalenceProperty diffs the planner-ordered batch join against
// the oracle's syntactic-order boxed join, duplicate and NULL keys included.
func TestJoinEquivalenceProperty(t *testing.T) {
	queries := []string{
		"SELECT o.id, c.name FROM o JOIN c ON o.cid = c.cid ORDER BY o.id, c.name",
		// Duplicate keys on both sides: full cross-product per key.
		"SELECT o.id, x.tag FROM o JOIN x ON o.cid = x.cid ORDER BY o.id, x.tag",
		// Three-way join with a post-join residual WHERE.
		"SELECT o.id, c.name, x.tag FROM o JOIN c ON o.cid = c.cid JOIN x ON o.cid = x.cid WHERE o.id < 150 ORDER BY o.id, x.tag",
		// Join feeding aggregation.
		"SELECT c.name, COUNT(*) FROM o JOIN c ON o.cid = c.cid GROUP BY c.name ORDER BY c.name",
		// A view whose arithmetic column is declared FLOAT but drifts: HALF
		// yields INTEGER values for even cids and FLOAT for odd ones, and
		// INTEGER + INTEGER stays INTEGER. The join input must be coerced
		// before it columnizes, both as the right side and as the anchor.
		"SELECT o.id, h.half FROM o JOIN halves h ON o.cid = h.cid ORDER BY o.id",
		"SELECT h.half, x.tag FROM halves h JOIN x ON h.cid = x.cid ORDER BY h.half, x.tag",
		// The drifting column itself as the join key: INTEGER 3 = FLOAT 3.0.
		"SELECT o.id, h.cid FROM o JOIN halves h ON o.cid = h.half ORDER BY o.id, h.cid",
	}
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	rng := rand.New(rand.NewSource(11))
	s.MustExecute("CREATE TABLE o (id INTEGER, cid INTEGER) SEGMENTED BY HASH(id)")
	s.MustExecute("CREATE TABLE c (cid INTEGER, name VARCHAR) SEGMENTED BY HASH(cid)")
	s.MustExecute("CREATE TABLE x (cid INTEGER, tag VARCHAR) SEGMENTED BY HASH(cid)")
	c.RegisterUDx("HALF", func(args []types.Value, _ map[string]string) (types.Value, error) {
		if n := args[0].AsInt(); args[0].Null || n%2 == 0 {
			return types.IntValue(n / 2), nil
		}
		return types.FloatValue(float64(args[0].AsInt()) / 2), nil
	})
	s.MustExecute("CREATE VIEW halves AS SELECT cid, HALF(cid) + 0 AS half FROM c")
	var ov, cv, xv []string
	for i := 0; i < 300; i++ {
		cid := fmt.Sprintf("%d", rng.Intn(20))
		if rng.Intn(15) == 0 {
			cid = "NULL"
		}
		ov = append(ov, fmt.Sprintf("(%d, %s)", i, cid))
	}
	for i := 0; i < 20; i++ {
		cv = append(cv, fmt.Sprintf("(%d, 'cust%d')", i, i))
	}
	cv = append(cv, "(NULL, 'null-cust')")
	// x holds duplicate cids: several tags per key.
	for i := 0; i < 50; i++ {
		xv = append(xv, fmt.Sprintf("(%d, 'tag%d')", rng.Intn(20), i))
	}
	s.MustExecute("INSERT INTO o VALUES " + strings.Join(ov, ", "))
	s.MustExecute("INSERT INTO c VALUES " + strings.Join(cv, ", "))
	s.MustExecute("INSERT INTO x VALUES " + strings.Join(xv, ", "))
	for _, q := range queries {
		got := s.MustExecute(q)
		if len(got.Rows) == 0 {
			t.Fatalf("%s: empty result, data generator broken", q)
		}
		sameResults(t, q, got, oracleSelect(t, s, q))
	}
}
