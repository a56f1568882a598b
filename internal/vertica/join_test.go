package vertica

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"vsfabric/internal/vertica/scantest"
)

// TestJoinOnEitherOrder: an ON clause joins the same columns whichever way
// round it is written. Both relations have an id and a cid, so a qualified
// name matched against the wrong side's bare column names finds a column —
// the wrong one. The expected rows are written out by hand: the oracle
// resolves ON names the way the engine does.
func TestJoinOnEitherOrder(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE o (id INTEGER, cid INTEGER)")
	s.MustExecute("CREATE TABLE c (cid INTEGER, id INTEGER)")
	s.MustExecute("INSERT INTO o VALUES (1, 10), (2, 20)")
	s.MustExecute("INSERT INTO c VALUES (100, 10), (1, 999)")
	want := "[1 10 100 10]"
	for _, q := range []string{
		"SELECT * FROM o JOIN c ON o.cid = c.id",
		"SELECT * FROM o JOIN c ON c.id = o.cid",
		"SELECT o.id, o.cid, c.cid, c.id FROM o JOIN c ON c.id = o.cid",
		"SELECT o.id, o.cid, c.cid, c.id FROM c JOIN o ON c.id = o.cid",
	} {
		res := s.MustExecute(q)
		if len(res.Rows) != 1 || fmt.Sprint(res.Rows[0]) != want {
			t.Errorf("%s = %v, want [%s]", q, res.Rows, want)
		}
	}
	// A qualifier that names neither side resolves against neither.
	if _, err := s.Execute("SELECT * FROM o JOIN c ON o.cid = x.id"); err == nil {
		t.Error("ON naming a relation outside the join ran")
	}
}

// TestJoinStarInFromOrder: `*` over a join lists the relations' columns in
// FROM-clause order, whatever order the planner attaches them in — here the
// smaller db is attached before da.
func TestJoinStarInFromOrder(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE f (id INTEGER, a INTEGER, b INTEGER) SEGMENTED BY HASH(id)")
	s.MustExecute("CREATE TABLE da (a INTEGER, an VARCHAR)")
	s.MustExecute("CREATE TABLE db (b INTEGER, bn VARCHAR)")
	var fv, av []string
	for i := 0; i < 40; i++ {
		fv = append(fv, fmt.Sprintf("(%d, %d, %d)", i, i%8, i%3))
	}
	for a := 0; a < 8; a++ {
		av = append(av, fmt.Sprintf("(%d, 'a%d')", a, a))
	}
	s.MustExecute("INSERT INTO f VALUES " + strings.Join(fv, ", "))
	s.MustExecute("INSERT INTO da VALUES " + strings.Join(av, ", "))
	s.MustExecute("INSERT INTO db VALUES (0, 'b0'), (1, 'b1'), (2, 'b2')")

	const q = "SELECT * FROM f JOIN da ON f.a = da.a JOIN db ON f.b = db.b ORDER BY f.id"
	plans := s.MustExecute("EXPLAIN " + q)
	var order []string
	for _, r := range plans.Rows {
		if r[1].S == "join" {
			order = append(order, r[2].S)
		}
	}
	if strings.Join(order, ",") != "db,da" {
		t.Fatalf("join order %v: the fixture no longer reorders", order)
	}
	got := s.MustExecute(q)
	if names := strings.Join(got.Schema.ColNames(), " "); names != "f.id f.a f.b da.a da.an db.b db.bn" {
		t.Fatalf("SELECT * columns = %s", names)
	}
	sameResults(t, q, got, oracleSelect(t, s, q))
}

// TestJoinPushdownMatchesOracle: a WHERE conjunct that names one relation
// filters that relation's scan, and everything else stays one filter above
// the joins. The oracle filters after joining, so each case is also the check
// that pushed down equals post-join.
func TestJoinPushdownMatchesOracle(t *testing.T) {
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	shapesFixture(t, c, s)
	for _, tc := range []struct {
		q      string
		filter bool   // a post-join filter node remains
		scan   string // a scan the conjuncts must reach, with the detail that shows it
		detail string
	}{
		// One conjunct for each side; the view's is applied at its scan node.
		{q: "SELECT m.id, mv.v2 FROM m JOIN mv ON m.k = mv.k WHERE mv.v2 > 20 AND m.id < 60 ORDER BY m.id, mv.v2",
			scan: "scan mv", detail: "filtered by its WHERE conjuncts"},
		{q: "SELECT mv.id, d.label FROM mv JOIN d ON mv.k = d.k WHERE mv.label = 'ant' ORDER BY mv.id",
			scan: "scan mv", detail: "filtered by its WHERE conjuncts"},
		// A system table side: the catalog's own describe shape.
		{q: "SELECT c.column_name, t.is_segmented FROM v_catalog.columns c JOIN v_catalog.tables t " +
			"ON c.table_name = t.table_name WHERE t.table_name = 'e' ORDER BY c.column_name",
			scan: "scan v_catalog.tables", detail: "filtered by its WHERE conjuncts"},
		// Columns that are NULL on one side.
		{q: "SELECT m.id, d.label FROM m JOIN d ON m.k = d.k WHERE d.label IS NULL ORDER BY m.id",
			scan: "scan d", detail: "1 kernels"},
		{q: "SELECT m.id, e.tag FROM m JOIN e ON m.k = e.k WHERE e.w IS NOT NULL AND m.v IS NULL ORDER BY m.id, e.tag",
			scan: "scan e", detail: "1 kernels"},
		// Unqualified and ambiguous (label is m's and d's): residual.
		{q: "SELECT m.id, d.w FROM m JOIN d ON m.k = d.k WHERE label = 'ant' ORDER BY m.id", filter: true},
		// Unqualified though unambiguous: residual all the same.
		{q: "SELECT m.id FROM m JOIN d ON m.k = d.k WHERE w > 3 ORDER BY m.id", filter: true},
		// Naming two relations: residual; the other conjunct still goes down.
		{q: "SELECT m.id, d.w FROM m JOIN d ON m.k = d.k WHERE m.id > d.w AND d.w < 7 ORDER BY m.id",
			filter: true, scan: "scan d", detail: "1 kernels"},
		// A self-join: the alias decides which instance a conjunct filters.
		{q: "SELECT a.id, b.id FROM m a JOIN m b ON a.k = b.k WHERE b.id < 9 ORDER BY a.id, b.id",
			scan: "scan m", detail: "1 kernels"},
		// HASH bounds on the segmented side prune its segments.
		{q: "SELECT m.id, d.label FROM m JOIN d ON m.k = d.k WHERE HASH(m.id) >= 2147483648 ORDER BY m.id",
			scan: "scan m", detail: "2 segments"},
	} {
		got := s.MustExecute(tc.q)
		if len(got.Rows) == 0 {
			t.Fatalf("%s: empty result, fixture broken", tc.q)
		}
		sameResults(t, tc.q, got, oracleSelect(t, s, tc.q))
		filter, reached := false, tc.scan == ""
		var ops []string
		for _, r := range s.MustExecute("EXPLAIN " + tc.q).Rows {
			op := r[1].S + " " + r[2].S
			ops = append(ops, op+" ("+r[6].S+")")
			filter = filter || r[1].S == "filter"
			reached = reached || (strings.TrimSpace(op) == tc.scan && strings.Contains(r[6].S, tc.detail))
		}
		if filter != tc.filter || !reached {
			t.Errorf("%s: plan %s\n want post-join filter %v, %q carrying %q", tc.q, strings.Join(ops, "; "), tc.filter, tc.scan, tc.detail)
		}
	}
}

// TestWholeRowReadsPruneNothing: HASH(*) hashes every column of its input row,
// so a statement holding one keeps every column — of a single table's scan
// beside a named column, and of every join input.
func TestWholeRowReadsPruneNothing(t *testing.T) {
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	shapesFixture(t, c, s)
	for _, q := range []string{
		"SELECT id, HASH(*) FROM m ORDER BY id",
		"SELECT m.id, HASH(*) FROM m JOIN d ON m.k = d.k ORDER BY m.id",
		"SELECT m.id FROM m JOIN d ON m.k = d.k WHERE m.id < 60 AND HASH(*) >= 2147483648 ORDER BY m.id",
	} {
		sameResults(t, q, s.MustExecute(q), oracleSelect(t, s, q))
	}
}

// TestJoinGathersPrunedWidth: a join allocates by the columns the statement
// reads, not by its inputs' width. The sql_mix join reads two cells per
// matched pair at each step (f.c1 and the next key, then f.c1 and the group
// name) out of 13 and 15; allocation must stay within twice the pair lists
// (16 bytes a pair) plus those cells, plus a fixed allowance for the scans
// and the aggregation.
func TestJoinGathersPrunedWidth(t *testing.T) {
	const rows, slack = 60_000, 2 << 20
	s := joinFixture(t, rows)
	var pairs int64
	for _, r := range s.MustExecute("PROFILE " + join3Way).Rows {
		if r[0].S == "join" {
			if pairs += r[2].I; !strings.Contains(r[6].S, "carries 2 columns") {
				t.Errorf("join step %v: want 2 columns gathered", r)
			}
		}
	}
	if pairs != 2*rows {
		t.Fatalf("joins matched %d pairs, want %d", pairs, 2*rows)
	}
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := s.ExecuteColumnar(context.Background(), join3Way)
		runtime.ReadMemStats(&after)
		if err != nil || res.NumRows() != 10 {
			t.Fatalf("join: %v, %d rows", err, res.NumRows())
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	run()
	bound := uint64(2*pairs*(16+8*2) + slack)
	if got := run(); got > bound {
		t.Fatalf("join allocated %d bytes, bound %d (%d pairs)", got, bound, pairs)
	} else {
		t.Logf("join allocated %d bytes for %d pairs (bound %d)", got, pairs, bound)
	}
}

// TestJoinToUniqueKeysSharesProbe: both of the sql_mix join's steps join to
// unique keys, so each hands on its probe batches — the fact rows are never
// copied — and carries the build side as codes. What a step allocates is its
// selection and its codes, 8 bytes a probe row: the statement stays within 12
// bytes a probe row a step, plus TestJoinGathersPrunedWidth's allowance for the
// scans and the aggregation.
func TestJoinToUniqueKeysSharesProbe(t *testing.T) {
	const rows, slack = 60_000, 2 << 20
	s := joinFixture(t, rows)
	steps := 0
	for _, r := range s.MustExecute("PROFILE " + join3Way).Rows {
		if r[0].S == "join" {
			steps++
			if !strings.Contains(r[6].S, "probe batches shared") {
				t.Errorf("join step %v: want the probe batches shared", r)
			}
		}
	}
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := s.ExecuteColumnar(context.Background(), join3Way)
		runtime.ReadMemStats(&after)
		if err != nil || res.NumRows() != 10 {
			t.Fatalf("join: %v, %d rows", err, res.NumRows())
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	run()
	bound := uint64(12*rows*steps + slack)
	if got := run(); got > bound {
		t.Fatalf("join allocated %d bytes over %d steps, bound %d", got, steps, bound)
	} else {
		t.Logf("join allocated %d bytes over %d steps (bound %d)", got, steps, bound)
	}
}

// TestJoinOutputFormsMatchOracle: both join output forms — the probe batches
// handed on with their selection narrowed, or the probe side gathered by
// matched pairs, the build side dictionary-coded in either — answer as the
// oracle does through every consumer: the next join's probe, a GROUP BY of
// each kind of build column, expressions and HASH(*) over the joined row,
// ORDER BY, LIMIT and INSERT…SELECT. Each case pins the form of its steps.
func TestJoinOutputFormsMatchOracle(t *testing.T) {
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	scantest.BuildJoin(5, func(q string) { s.MustExecute(q) })
	for _, tc := range scantest.JoinCases() {
		got := s.MustExecute(tc.Query)
		if len(got.Rows) == 0 {
			t.Fatalf("%s: empty result, fixture broken", tc.Query)
		}
		if want := oracleSelect(t, s, tc.Query); strings.Contains(tc.Query, "ORDER BY") {
			sameResults(t, tc.Query, got, want)
		} else {
			sameMultiset(t, tc.Query, rowMultiset(got.Rows), rowMultiset(want.Rows))
		}
		var forms []scantest.JoinForm
		for _, r := range s.MustExecute("PROFILE " + tc.Query).Rows {
			if r[0].S == "join" {
				forms = append(forms, scantest.JoinForm{BuildLeft: strings.Contains(r[6].S, "build left side"),
					Shared: strings.Contains(r[6].S, "probe batches shared")})
			}
		}
		if !slices.Equal(forms, tc.Steps) {
			t.Errorf("%s: join steps %+v, want %+v", tc.Query, forms, tc.Steps)
		}
	}
	s.MustExecute(scantest.JoinInsert)
	sameResults(t, scantest.JoinInsert, s.MustExecute(scantest.JoinInserted), oracleSelect(t, s, scantest.JoinInsertSelect))
}
