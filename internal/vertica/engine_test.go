package vertica

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"vsfabric/internal/avro"
	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

func testCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func sess(t *testing.T, c *Cluster, node int) *Session {
	t.Helper()
	s, err := c.Connect(node)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestCreateInsertSelect(t *testing.T) {
	c := testCluster(t, 4)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER, x FLOAT, name VARCHAR) SEGMENTED BY HASH(id)")
	s.MustExecute("INSERT INTO t VALUES (1, 1.5, 'a'), (2, 2.5, 'b'), (3, NULL, 'c')")
	res := s.MustExecute("SELECT id, x, name FROM t WHERE id >= 2")
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows: %v", len(res.Rows), res.Rows)
	}
	res = s.MustExecute("SELECT COUNT(*) FROM t")
	v, err := res.Value()
	if err != nil || v.I != 3 {
		t.Errorf("COUNT(*) = %v, %v", v, err)
	}
	res = s.MustExecute("SELECT COUNT(*) FROM t WHERE x IS NULL")
	if v, _ := res.Value(); v.I != 1 {
		t.Errorf("IS NULL count = %v", v)
	}
}

func TestRowsRoutedBySegmentation(t *testing.T) {
	c := testCluster(t, 4)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER) SEGMENTED BY HASH(id)")
	var values []string
	for i := 0; i < 400; i++ {
		values = append(values, fmt.Sprintf("(%d)", i))
	}
	s.MustExecute("INSERT INTO t VALUES " + strings.Join(values, ", "))
	tbl, _ := c.Catalog().Table("t")
	vis := snapshotVis(c)
	total := 0
	segs := tbl.SegmentRanges()
	for i, st := range tbl.Stores {
		n := st.RowCount(vis)
		total += n
		if n == 0 {
			t.Errorf("node %d got no rows; routing is broken", i)
		}
		// Every row on node i must hash into segment i.
		st.Scan(vis, vhash.Range{Lo: 0, Hi: vhash.RingSize}, func(r types.Row) bool {
			h := tbl.RowHash(r)
			if !segs[i].Contains(h) {
				t.Errorf("row %v (hash %d) misplaced on node %d", r, h, i)
			}
			return true
		})
	}
	if total != 400 {
		t.Errorf("total rows = %d, want 400", total)
	}
}

func TestHashRangeQueryLocality(t *testing.T) {
	c := testCluster(t, 4)
	s := sess(t, c, 2)
	s.MustExecute("CREATE TABLE t (id INTEGER, v FLOAT) SEGMENTED BY HASH(id)")
	var values []string
	for i := 0; i < 200; i++ {
		values = append(values, fmt.Sprintf("(%d, %d.5)", i, i))
	}
	s.MustExecute("INSERT INTO t VALUES " + strings.Join(values, ", "))

	// Query exactly node 2's segment from node 2: full locality.
	segs := vhash.Segments(4)
	q := fmt.Sprintf("SELECT id, v FROM t WHERE HASH(id) >= %d AND HASH(id) < %d", segs[2].Lo, segs[2].Hi)
	res := s.MustExecute(q)
	for _, r := range res.Rows {
		h := vhash.Hash(r[0])
		if !segs[2].Contains(h) {
			t.Errorf("row %v outside requested range", r)
		}
	}
	// Union over all four ranges must reproduce the table exactly once.
	seen := map[int64]int{}
	for i := 0; i < 4; i++ {
		q := fmt.Sprintf("SELECT id FROM t WHERE HASH(id) >= %d AND HASH(id) < %d", segs[i].Lo, segs[i].Hi)
		for _, r := range s.MustExecute(q).Rows {
			seen[r[0].I]++
		}
	}
	if len(seen) != 200 {
		t.Fatalf("union covered %d ids, want 200", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("id %d returned %d times", id, n)
		}
	}
}

func TestEpochSnapshotIsolation(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER)")
	s.MustExecute("INSERT INTO t VALUES (1), (2)")
	e1 := c.LastEpoch()
	s.MustExecute("INSERT INTO t VALUES (3)")
	s.MustExecute("DELETE FROM t WHERE id = 1")

	res := s.MustExecute(fmt.Sprintf("AT EPOCH %d SELECT COUNT(*) FROM t", e1))
	if v, _ := res.Value(); v.I != 2 {
		t.Errorf("AT EPOCH %d count = %v, want 2", e1, v)
	}
	res = s.MustExecute("AT EPOCH LATEST SELECT COUNT(*) FROM t")
	if v, _ := res.Value(); v.I != 2 {
		t.Errorf("latest count = %v, want 2 (3 inserted, 1 deleted)", v)
	}
	if _, err := s.Execute(fmt.Sprintf("AT EPOCH %d SELECT * FROM t", c.LastEpoch()+10)); err == nil {
		t.Error("future epoch should error")
	}
}

func TestExplicitTransactionCommitAbort(t *testing.T) {
	c := testCluster(t, 2)
	a := sess(t, c, 0)
	b := sess(t, c, 1)
	a.MustExecute("CREATE TABLE t (id INTEGER)")

	a.MustExecute("BEGIN")
	a.MustExecute("INSERT INTO t VALUES (1)")
	// Uncommitted: invisible to b, visible to a.
	if v, _ := b.MustExecute("SELECT COUNT(*) FROM t").Value(); v.I != 0 {
		t.Error("uncommitted insert visible to other session")
	}
	if v, _ := a.MustExecute("SELECT COUNT(*) FROM t").Value(); v.I != 1 {
		t.Error("session cannot see its own uncommitted insert")
	}
	a.MustExecute("COMMIT")
	if v, _ := b.MustExecute("SELECT COUNT(*) FROM t").Value(); v.I != 1 {
		t.Error("committed insert not visible")
	}

	a.MustExecute("BEGIN")
	a.MustExecute("INSERT INTO t VALUES (2)")
	a.MustExecute("ROLLBACK")
	if v, _ := b.MustExecute("SELECT COUNT(*) FROM t").Value(); v.I != 1 {
		t.Error("aborted insert leaked")
	}
}

func TestConditionalUpdateLeaderElection(t *testing.T) {
	// The exact S2V phase-3 race (§3.2.1): many sessions try to claim the
	// last-committer slot; exactly one succeeds.
	c := testCluster(t, 4)
	setup := sess(t, c, 0)
	setup.MustExecute("CREATE TABLE lc (task_id INTEGER)")
	setup.MustExecute("INSERT INTO lc VALUES (-1)") // -1 = unclaimed

	const tasks = 8
	var wg sync.WaitGroup
	winners := make(chan int, tasks)
	for i := 0; i < tasks; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s, err := c.Connect(id % 4)
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			if _, err := s.Execute("BEGIN"); err != nil {
				t.Error(err)
				return
			}
			res, err := s.Execute(fmt.Sprintf("UPDATE lc SET task_id = %d WHERE task_id = -1", id))
			if err != nil {
				_, _ = s.Execute("ROLLBACK")
				return
			}
			if res.RowsAffected == 1 {
				if _, err := s.Execute("COMMIT"); err == nil {
					winners <- id
				}
			} else {
				_, _ = s.Execute("ROLLBACK")
			}
		}(i)
	}
	wg.Wait()
	close(winners)
	var won []int
	for w := range winners {
		won = append(won, w)
	}
	if len(won) != 1 {
		t.Fatalf("leader election produced %d winners: %v", len(won), won)
	}
	res := setup.MustExecute("SELECT task_id FROM lc")
	if v, _ := res.Value(); v.I != int64(won[0]) {
		t.Errorf("table records task %v, winner was %d", v, won[0])
	}
}

func TestUpdateReroutesOnSegmentChange(t *testing.T) {
	c := testCluster(t, 4)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER, v VARCHAR) SEGMENTED BY HASH(id)")
	s.MustExecute("INSERT INTO t VALUES (1, 'x')")
	s.MustExecute("UPDATE t SET id = 9999")
	tbl, _ := c.Catalog().Table("t")
	vis := snapshotVis(c)
	home := tbl.HomeNode(vhash.Hash(types.IntValue(9999)))
	if got := tbl.Stores[home].RowCount(vis); got != 1 {
		t.Errorf("updated row not on new home node %d (count %d)", home, got)
	}
	if v, _ := s.MustExecute("SELECT COUNT(*) FROM t").Value(); v.I != 1 {
		t.Error("update duplicated or lost the row")
	}
}

func TestUnsegmentedReplication(t *testing.T) {
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE u (id INTEGER) UNSEGMENTED ALL NODES")
	s.MustExecute("INSERT INTO u VALUES (1), (2)")
	tbl, _ := c.Catalog().Table("u")
	vis := snapshotVis(c)
	for i, st := range tbl.Stores {
		if st.RowCount(vis) != 2 {
			t.Errorf("replica on node %d has %d rows, want 2", i, st.RowCount(vis))
		}
	}
	// Reads from any node see the same data with zero shuffle.
	s2 := sess(t, c, 2)
	if v, _ := s2.MustExecute("SELECT COUNT(*) FROM u").Value(); v.I != 2 {
		t.Error("unsegmented read from other node broken")
	}
	// Conditional update still works and applies to all replicas.
	s.MustExecute("UPDATE u SET id = 5 WHERE id = 1")
	for i, st := range tbl.Stores {
		if st.RowCount(snapshotVis(c)) != 2 {
			t.Errorf("replica %d lost rows after update", i)
		}
	}
}

func TestKSafetyFailover(t *testing.T) {
	c, err := NewCluster(Config{Nodes: 4, KSafety: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.MustExecute("CREATE TABLE t (id INTEGER) SEGMENTED BY HASH(id) KSAFE 1")
	var values []string
	for i := 0; i < 100; i++ {
		values = append(values, fmt.Sprintf("(%d)", i))
	}
	s.MustExecute("INSERT INTO t VALUES " + strings.Join(values, ", "))
	before, _ := s.MustExecute("SELECT COUNT(*) FROM t").Value()
	c.Node(2).SetDown(true)
	after, _ := s.MustExecute("SELECT COUNT(*) FROM t").Value()
	if before.I != 100 || after.I != 100 {
		t.Errorf("count before/after node failure: %v / %v, want 100/100", before, after)
	}
	c.Node(3).SetDown(true)
	if _, err := s.Execute("SELECT COUNT(*) FROM t"); err == nil {
		t.Error("two failures with k=1 should error")
	}
}

func TestCopyCSVStream(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER, name VARCHAR)")
	data := "1,alice\n2,bob\nnotanint,carol\n3,dave\n"
	res, err := s.CopyFrom("COPY t FROM STDIN FORMAT CSV DIRECT REJECTMAX 1", strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if res.Copy.Loaded != 3 || res.Copy.Rejected != 1 {
		t.Errorf("loaded/rejected = %d/%d", res.Copy.Loaded, res.Copy.Rejected)
	}
	if len(res.Copy.RejectedSample) != 1 {
		t.Errorf("rejected sample = %v", res.Copy.RejectedSample)
	}
	if v, _ := s.MustExecute("SELECT COUNT(*) FROM t").Value(); v.I != 3 {
		t.Error("COPY did not load rows")
	}
}

func TestCopyRejectMaxExceeded(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER)")
	_, err := s.CopyFrom("COPY t FROM STDIN FORMAT CSV", strings.NewReader("x\ny\n"))
	if err == nil {
		t.Fatal("rejects beyond REJECTMAX should fail the load")
	}
	if v, _ := s.MustExecute("SELECT COUNT(*) FROM t").Value(); v.I != 0 {
		t.Error("failed COPY must not leave partial data")
	}
}

func TestCopyAvroStream(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER, x FLOAT)")
	schema := avro.Schema{Name: "row", Fields: []avro.Field{
		{Name: "id", Type: types.Int64}, {Name: "x", Type: types.Float64},
	}}
	var buf bytes.Buffer
	w, err := avro.NewWriter(&buf, schema, avro.CodecDeflate, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := w.Append(types.Row{types.IntValue(int64(i)), types.FloatValue(float64(i) / 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := s.CopyFrom("COPY t FROM STDIN FORMAT AVRO DIRECT", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Copy.Loaded != 50 {
		t.Errorf("loaded = %d", res.Copy.Loaded)
	}
	if v, _ := s.MustExecute("SELECT SUM(id) FROM t").Value(); v.I != 49*50/2 {
		t.Errorf("SUM(id) = %v", v)
	}
}

func TestCopyAvroSchemaMismatch(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER)")
	var buf bytes.Buffer
	w, _ := avro.NewWriter(&buf, avro.Schema{Name: "row", Fields: []avro.Field{{Name: "wrong", Type: types.Varchar}}}, avro.CodecNull, 0)
	_ = w.Append(types.Row{types.StringValue("x")})
	_ = w.Close()
	if _, err := s.CopyFrom("COPY t FROM STDIN FORMAT AVRO", &buf); err == nil {
		t.Error("schema mismatch should fail")
	}
}

func TestViewsAndAggregates(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE sales (region VARCHAR, amount FLOAT)")
	s.MustExecute("INSERT INTO sales VALUES ('east', 10), ('east', 20), ('west', 5)")
	s.MustExecute("CREATE VIEW totals AS SELECT region, SUM(amount) AS total, COUNT(*) AS n FROM sales GROUP BY region")
	res := s.MustExecute("SELECT region, total FROM totals WHERE total > 6")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "east" || res.Rows[0][1].F != 30 {
		t.Errorf("view query = %v", res.Rows)
	}
	// Synthetic hash partitioning over a view (the V2S view-loading path).
	seen := 0
	for i := 0; i < 4; i++ {
		q := fmt.Sprintf("SELECT region FROM totals WHERE MOD(HASH(*), 4) = %d", i)
		seen += len(s.MustExecute(q).Rows)
	}
	if seen != 2 {
		t.Errorf("synthetic hash partitions covered %d view rows, want 2", seen)
	}
}

func TestJoin(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE users (uid INTEGER, name VARCHAR)")
	s.MustExecute("CREATE TABLE orders (oid INTEGER, uid INTEGER, amt FLOAT)")
	s.MustExecute("INSERT INTO users VALUES (1, 'ann'), (2, 'bob')")
	s.MustExecute("INSERT INTO orders VALUES (10, 1, 5.0), (11, 1, 7.0), (12, 3, 9.0)")
	res := s.MustExecute("SELECT u.name, o.amt FROM users u JOIN orders o ON u.uid = o.uid WHERE o.amt > 4")
	if len(res.Rows) != 2 {
		t.Fatalf("join rows = %v", res.Rows)
	}
	for _, r := range res.Rows {
		if r[0].S != "ann" {
			t.Errorf("unexpected join row %v", r)
		}
	}
}

func TestSystemTables(t *testing.T) {
	c := testCluster(t, 4)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER, x FLOAT) SEGMENTED BY HASH(id)")

	res := s.MustExecute("SELECT node_address FROM v_catalog.nodes")
	if len(res.Rows) != 4 {
		t.Errorf("nodes = %d", len(res.Rows))
	}
	res = s.MustExecute("SELECT segment_lower_bound, segment_upper_bound FROM v_catalog.segments WHERE table_name = 't'")
	if len(res.Rows) != 4 {
		t.Fatalf("segments = %d", len(res.Rows))
	}
	if res.Rows[0][0].I != 0 || uint64(res.Rows[3][1].I) != vhash.RingSize {
		t.Errorf("segment bounds wrong: %v", res.Rows)
	}
	res = s.MustExecute("SELECT column_name, data_type FROM v_catalog.columns WHERE table_name = 't'")
	if len(res.Rows) != 2 || res.Rows[1][1].S != "FLOAT" {
		t.Errorf("columns = %v", res.Rows)
	}
	res = s.MustExecute("SELECT is_segmented FROM v_catalog.tables WHERE table_name = 't'")
	if v, _ := res.Value(); !v.B {
		t.Error("t should be segmented")
	}
}

func TestBuiltinsAndUDx(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	res := s.MustExecute("SELECT LAST_EPOCH()")
	if v, _ := res.Value(); uint64(v.I) != c.LastEpoch() {
		t.Errorf("LAST_EPOCH() = %v, want %d", v, c.LastEpoch())
	}
	c.RegisterUDx("double_it", func(args []types.Value, _ map[string]string) (types.Value, error) {
		return types.FloatValue(args[0].AsFloat() * 2), nil
	})
	s.MustExecute("CREATE TABLE t (x FLOAT)")
	s.MustExecute("INSERT INTO t VALUES (1.5)")
	res = s.MustExecute("SELECT DOUBLE_IT(x) FROM t")
	if v, _ := res.Value(); v.F != 3.0 {
		t.Errorf("UDx = %v", v)
	}
	if _, err := s.Execute("SELECT NO_SUCH_FN(x) FROM t"); err == nil {
		t.Error("unknown function should error at plan time")
	}
}

func TestRenameOverwriteCommit(t *testing.T) {
	// The S2V overwrite pattern: staging renamed over target atomically with
	// a conditional status update.
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE target (id INTEGER)")
	s.MustExecute("INSERT INTO target VALUES (1)")
	s.MustExecute("CREATE TABLE staging (id INTEGER)")
	s.MustExecute("INSERT INTO staging VALUES (100), (200)")
	s.MustExecute("CREATE TABLE status (finished BOOLEAN)")
	s.MustExecute("INSERT INTO status VALUES (FALSE)")

	s.MustExecute("BEGIN")
	res := s.MustExecute("UPDATE status SET finished = TRUE WHERE finished = FALSE")
	if res.RowsAffected != 1 {
		t.Fatal("conditional update should succeed")
	}
	s.MustExecute("DROP TABLE target")
	s.MustExecute("ALTER TABLE staging RENAME TO target")
	s.MustExecute("COMMIT")

	if v, _ := s.MustExecute("SELECT COUNT(*) FROM target").Value(); v.I != 2 {
		t.Error("rename did not take effect")
	}
	if _, ok := c.Catalog().Table("staging"); ok {
		t.Error("staging should be gone")
	}

	// A duplicate committer aborts: target untouched.
	s.MustExecute("CREATE TABLE staging2 (id INTEGER)")
	s.MustExecute("BEGIN")
	res = s.MustExecute("UPDATE status SET finished = TRUE WHERE finished = FALSE")
	if res.RowsAffected != 0 {
		t.Fatal("second conditional update should find nothing")
	}
	s.MustExecute("ROLLBACK")
	if v, _ := s.MustExecute("SELECT COUNT(*) FROM target").Value(); v.I != 2 {
		t.Error("duplicate committer corrupted target")
	}
}

func TestRenameAbortedInTxn(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE a (id INTEGER)")
	s.MustExecute("BEGIN")
	s.MustExecute("ALTER TABLE a RENAME TO b")
	s.MustExecute("ROLLBACK")
	if _, ok := c.Catalog().Table("a"); !ok {
		t.Error("aborted rename must not apply")
	}
}

func TestSessionLimit(t *testing.T) {
	c, err := NewCluster(Config{Nodes: 1, MaxClientSessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := c.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Connect(0); err == nil {
		t.Error("third session should exceed MAX-CLIENT-SESSIONS")
	}
	s1.Close()
	s3, err := c.Connect(0)
	if err != nil {
		t.Errorf("session slot should free on close: %v", err)
	}
	s2.Close()
	if s3 != nil {
		s3.Close()
	}
}

// TestMoveoutPreservesData: the checkpoint — the durable pass that also once
// moved buffered rows out — keeps every row and every epoch's view of them.
func TestMoveoutPreservesData(t *testing.T) {
	c := durableCluster(t, t.TempDir())
	t.Cleanup(func() { c.Close() })
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER)")
	s.MustExecute("INSERT INTO t VALUES (1), (2), (3)")
	e := c.LastEpoch()
	s.MustExecute("DELETE FROM t WHERE id = 2")
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.MustExecute("SELECT COUNT(*) FROM t").Value(); v.I != 2 {
		t.Error("checkpoint changed the latest rows")
	}
	res := s.MustExecute(fmt.Sprintf("AT EPOCH %d SELECT COUNT(*) FROM t", e))
	if v, _ := res.Value(); v.I != 3 {
		t.Error("checkpoint broke epoch visibility")
	}
}

func TestLimitAndArithmetic(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER)")
	s.MustExecute("INSERT INTO t VALUES (1), (2), (3), (4)")
	res := s.MustExecute("SELECT id * 2 + 1 AS y FROM t LIMIT 2")
	if len(res.Rows) != 2 {
		t.Errorf("LIMIT: %d rows", len(res.Rows))
	}
	if res.Schema.Cols[0].Name != "y" {
		t.Errorf("alias = %q", res.Schema.Cols[0].Name)
	}
}

func TestInsertColumnSubsetAndCoercion(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER, x FLOAT, name VARCHAR)")
	s.MustExecute("INSERT INTO t (x, id) VALUES (2, 1)") // int literal into FLOAT col
	res := s.MustExecute("SELECT id, x, name FROM t")
	r := res.Rows[0]
	if r[0].I != 1 || r[1].F != 2.0 || !r[2].Null {
		t.Errorf("row = %v", r)
	}
}

func TestErrors(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	if _, err := s.Execute("SELECT * FROM missing"); err == nil {
		t.Error("missing table should error")
	}
	if _, err := s.Execute("CREATE TABLE t (a INTEGER"); err == nil {
		t.Error("syntax error should surface")
	}
	s.MustExecute("CREATE TABLE t (a INTEGER)")
	if _, err := s.Execute("CREATE TABLE t (a INTEGER)"); err == nil {
		t.Error("duplicate table should error")
	}
	if _, err := s.Execute("INSERT INTO t (nope) VALUES (1)"); err == nil {
		t.Error("bad column should error")
	}
	if _, err := s.Execute("SELECT nope FROM t"); err == nil {
		t.Error("unknown select column should error")
	}
}

// TestDeletePredicateError: a DELETE whose predicate cannot be evaluated fails
// like the same SELECT and UPDATE do, in memory and on a durable cluster
// alike, marks no row and leaves the session usable. (The in-memory path used
// to drop the error and report 0 rows affected.)
func TestDeletePredicateError(t *testing.T) {
	for name, cfg := range map[string]Config{"memory": {Nodes: 2}, "durable": {Nodes: 2, DataDir: t.TempDir()}} {
		t.Run(name, func(t *testing.T) {
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			s := sess(t, c, 0)
			s.MustExecute("CREATE TABLE t (id INTEGER, v INTEGER) SEGMENTED BY HASH(id)")
			s.MustExecute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40)")
			const want = `expr: unknown column "nosuch"`
			for _, q := range []string{
				"SELECT id FROM t WHERE nosuch = 1",
				"UPDATE t SET v = 0 WHERE nosuch = 1",
				"DELETE FROM t WHERE nosuch = 1",
			} {
				if _, err := s.Execute(q); err == nil || err.Error() != want {
					t.Errorf("%s: error %v, want %s", q, err, want)
				}
			}
			// A predicate that fails on one row only, after other rows matched.
			if _, err := s.Execute("DELETE FROM t WHERE 12 / (id - 3) > 0"); err == nil || !strings.Contains(err.Error(), "division by zero") {
				t.Errorf("per-row failure: error %v", err)
			}
			if s.tx != nil {
				t.Error("failed autocommit DELETE left its transaction open")
			}
			if n := s.MustExecute("SELECT COUNT(*) FROM t").Rows[0][0].I; n != 4 {
				t.Errorf("%d rows visible after failed DELETEs, want 4", n)
			}
			if res := s.MustExecute("DELETE FROM t WHERE id >= 3"); res.RowsAffected != 2 {
				t.Errorf("valid DELETE affected %d rows, want 2", res.RowsAffected)
			}
		})
	}
}

func TestOrderBy(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER, name VARCHAR)")
	s.MustExecute("INSERT INTO t VALUES (3, 'c'), (1, 'a'), (2, 'b'), (2, 'z')")
	res := s.MustExecute("SELECT id, name FROM t ORDER BY id DESC, name ASC LIMIT 3")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].I != 3 || res.Rows[1][1].S != "b" || res.Rows[2][1].S != "z" {
		t.Errorf("order = %v", res.Rows)
	}
	// ORDER BY with aggregates.
	res = s.MustExecute("SELECT id, COUNT(*) AS n FROM t GROUP BY id ORDER BY n DESC, id")
	if res.Rows[0][0].I != 2 || res.Rows[0][1].I != 2 {
		t.Errorf("agg order = %v", res.Rows)
	}
	if _, err := s.Execute("SELECT id FROM t ORDER BY missing"); err == nil {
		t.Error("bad ORDER BY column should error")
	}
}

// TestSortedViewKeepsItsOrder: a view's ORDER BY leaves its batch's selection
// a permutation, which the outer query's filter and group-by read in that
// order. One node holds the rows in one container, in insert order, and each
// view's sorted selection has the endpoints of a run: w3 selects rows 5, 9, 7,
// and w all ten rows, 1 and 2 swapped.
func TestSortedViewKeepsItsOrder(t *testing.T) {
	s := sess(t, testCluster(t, 1), 0)
	s.MustExecute("CREATE TABLE t (id INTEGER, v FLOAT, u FLOAT)")
	var vals []string
	for i, v := range []int{10, 11, 12, 13, 14, 1, 16, 3, 18, 2} {
		u := []int{0, 2, 1, 3, 4, 5, 6, 7, 8, 9}[i]
		vals = append(vals, fmt.Sprintf("(%d, %d, %d)", i, v, u))
	}
	s.MustExecute("INSERT INTO t VALUES " + strings.Join(vals, ", "))
	s.MustExecute("CREATE VIEW w3 AS SELECT id, v FROM t ORDER BY v LIMIT 3")
	s.MustExecute("CREATE VIEW w AS SELECT id, u FROM t ORDER BY u")
	for _, c := range []struct {
		q    string
		want string
	}{
		{"SELECT id FROM w3 WHERE id < 100", "[[5] [9] [7]]"},
		{"SELECT id, SUM(v) FROM w3 GROUP BY id", "[[5 1] [9 2] [7 3]]"},
		{"SELECT id FROM w WHERE id >= 0", "[[0] [2] [1] [3] [4] [5] [6] [7] [8] [9]]"},
	} {
		if got := fmt.Sprint(s.MustExecute(c.q).Rows); got != c.want {
			t.Errorf("%s = %s, want %s", c.q, got, c.want)
		}
	}
}
