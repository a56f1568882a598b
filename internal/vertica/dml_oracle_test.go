package vertica

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"vsfabric/internal/expr"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vsql"
)

// This file gives DELETE and UPDATE the reference SELECT has: seeded
// statements — sqlgen_test.go's WHERE generator over table m — run against
// the engine and against filterRows over scanTableRowAtATime, the boxed
// row-at-a-time scan. The rows that survive, the affected-row count and the
// rows still visible AT EPOCH before the statement must agree, on an in-memory
// cluster with a node lost half way, on a durable one, and on the durable one
// again after kill-and-restart, where every delete is replay's equality delete.

// dmlFixture creates m — segmented, one buddy replica — with 120 rows, NULLs in
// every column but id, written by two INSERTs (two containers a store) with a
// checkpoint between them.
func dmlFixture(t *testing.T, c *Cluster, s *Session) {
	t.Helper()
	rng := rand.New(rand.NewSource(18))
	s.MustExecute("CREATE TABLE m (id INTEGER, k INTEGER, v FLOAT, label VARCHAR) SEGMENTED BY HASH(id) KSAFE 1")
	orNull := func(p int, v string) string {
		if rng.Intn(p) == 0 {
			return "NULL"
		}
		return v
	}
	labels := []string{"'ant'", "'bee'", "'cat'", "'dog'", "'eel'"}
	var rows []string
	for i := 0; i < 120; i++ {
		rows = append(rows, fmt.Sprintf("(%d, %s, %s, %s)", i, orNull(4, fmt.Sprint(rng.Intn(10))),
			orNull(4, fmt.Sprintf("%.1f", float64(rng.Intn(80))/2)), orNull(5, labels[rng.Intn(len(labels))])))
	}
	s.MustExecute("INSERT INTO m VALUES " + strings.Join(rows[:60], ", "))
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.MustExecute("INSERT INTO m VALUES " + strings.Join(rows[60:], ", "))
}

// sqlLiteral renders a stored value as the literal that inserts it.
func sqlLiteral(v types.Value) string {
	switch {
	case v.Null:
		return "NULL"
	case v.T == types.Varchar:
		return "'" + v.S + "'"
	case v.T == types.Float64:
		return strconv.FormatFloat(v.F, 'f', 1, 64)
	}
	return v.String()
}

// dmlState is the table as the oracle saw it before one statement.
type dmlState struct {
	epoch uint64
	rows  []string // rowMultiset
}

func oracleTable(t *testing.T, s *Session, epoch uint64) []types.Row {
	t.Helper()
	tbl, _ := s.cluster.cat.Table("m")
	rows, err := s.scanTableRowAtATime(tbl, storage.Visibility{Epoch: epoch})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func sameMultiset(t *testing.T, label string, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("%s: %d rows vs %d\n got %v\nwant %v", label, len(got), len(want), got, want)
	}
}

// checkHistory reads the table AT EPOCH each recorded state's epoch, through
// the engine and through the row-at-a-time scan.
func checkHistory(t *testing.T, label string, s *Session, history []dmlState) {
	t.Helper()
	for i, st := range history {
		at := fmt.Sprintf("%s: before statement %d, AT EPOCH %d", label, i, st.epoch)
		sameMultiset(t, at, rowMultiset(s.MustExecute(fmt.Sprintf("AT EPOCH %d SELECT * FROM m", st.epoch)).Rows), st.rows)
		sameMultiset(t, at+" (row scan)", rowMultiset(oracleTable(t, s, st.epoch)), st.rows)
	}
}

// runGeneratedDML runs the seeded statements, checking each against the
// oracle, and returns the table's state before every one of them plus the
// final one. halfway runs before statement statements/2.
func runGeneratedDML(t *testing.T, c *Cluster, s *Session, statements int, halfway func()) []dmlState {
	t.Helper()
	const seed = 18
	refs := make([]colRef, len(genM))
	for i, col := range genM {
		refs[i] = colRef{col.name, col}
	}
	schema := func() types.Schema { tbl, _ := c.cat.Table("m"); return tbl.Def.Schema }()
	var history []dmlState
	deletes, updates, touched := 0, 0, 0
	// A reader pinned at the start keeps every version the checks read back,
	// whatever storage reclamation may purge behind the AHM.
	t.Cleanup(c.txm.PinEpoch(c.LastEpoch()))
	for i := 0; i < statements; i++ {
		if i == statements/2 && halfway != nil {
			halfway()
		}
		rng := rand.New(rand.NewSource(seed + int64(i)))
		sql := "DELETE FROM m" + genWhere(rng, refs)
		if i%2 == 1 {
			sql = "UPDATE m SET v = v + 1, k = " + []string{"k + 1", "id", "7"}[rng.Intn(3)] + genWhere(rng, refs)
		}
		label := fmt.Sprintf("seed %d statement %d: %s", seed, i, sql)
		stmt, err := vsql.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}

		epoch := c.LastEpoch()
		before := oracleTable(t, s, epoch)
		history = append(history, dmlState{epoch, rowMultiset(before)})
		var want []types.Row // the table after the statement
		var where expr.Expr
		upd, isUpdate := stmt.(*vsql.Update)
		if isUpdate {
			where = upd.Where
			updates++
		} else {
			where = stmt.(*vsql.Delete).Where
			deletes++
		}
		matching, err := filterRows(before, schema, where)
		if err != nil {
			t.Fatalf("%s: oracle: %v", label, err)
		}
		if isUpdate {
			for _, r := range matching {
				nr := r.Clone()
				for _, sc := range upd.Set {
					v, err := sc.Expr.Eval(r, &schema)
					if err != nil {
						t.Fatalf("%s: oracle SET: %v", label, err)
					}
					ci := schema.ColIndex(sc.Col)
					if nr[ci], err = types.Coerce(v, schema.Cols[ci].T); err != nil {
						t.Fatalf("%s: oracle SET: %v", label, err)
					}
				}
				want = append(want, nr)
			}
		}
		gone := make(map[string]int)
		for _, key := range rowMultiset(matching) {
			gone[key]++
		}
		for _, r := range before {
			if key := rowMultiset([]types.Row{r})[0]; gone[key] > 0 {
				gone[key]--
				continue
			}
			want = append(want, r)
		}
		if len(matching) > 0 {
			touched++
		}

		res, err := s.Execute(sql)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.RowsAffected != int64(len(matching)) {
			t.Fatalf("%s: %d rows affected, the oracle matches %d", label, res.RowsAffected, len(matching))
		}
		sameMultiset(t, label+": table after", rowMultiset(s.MustExecute("SELECT * FROM m").Rows), rowMultiset(want))
		sameMultiset(t, label+": table after (row scan)", rowMultiset(oracleTable(t, s, c.LastEpoch())), rowMultiset(want))
		checkHistory(t, label, s, history[len(history)-1:])

		// Put a DELETE's rows back with an INSERT, so the table stays
		// populated.
		if !isUpdate && len(matching) > 0 {
			vals := make([]string, len(matching))
			for j, r := range matching {
				cells := make([]string, len(r))
				for k, v := range r {
					cells[k] = sqlLiteral(v)
				}
				vals[j] = "(" + strings.Join(cells, ", ") + ")"
			}
			s.MustExecute("INSERT INTO m VALUES " + strings.Join(vals, ", "))
		}
	}
	if touched < statements/2 {
		t.Fatalf("only %d of %d statements matched a row: generator broken", touched, statements)
	}
	t.Logf("%d DELETEs, %d UPDATEs, %d matched at least one row", deletes, updates, touched)
	return append(history, dmlState{c.LastEpoch(), rowMultiset(oracleTable(t, s, c.LastEpoch()))})
}

func TestGeneratedDMLMatchesOracle(t *testing.T) {
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	dmlFixture(t, c, s)
	// Half way a node is lost: reads fail over to its buddies, its stores are
	// skipped and go stale.
	history := runGeneratedDML(t, c, s, 200, func() { c.Node(1).SetDown(true) })
	checkHistory(t, "node 1 down", s, history)
	// Healed, the node's stores are rebuilt from their replicas' exported
	// versions and serve the whole history again.
	c.Node(1).SetDown(false)
	if st := c.Node(1).State(); st != NodeUp {
		t.Fatalf("node 1 is %v after healing", st)
	}
	checkHistory(t, "node 1 recovered", s, history)
	c.Node(2).SetDown(true) // segment 2 is now read from the buddy store node 0 holds
	checkHistory(t, "node 1 recovered, node 2 down", s, history)
}

func TestGeneratedDMLMatchesOracleDurable(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Cluster, *Session) {
		c, err := NewCluster(Config{Nodes: 3, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return c, sess(t, c, 0)
	}
	c, s := open()
	dmlFixture(t, c, s)
	history := runGeneratedDML(t, c, s, 200, nil)
	// Kill: no checkpoint since the fixture's, so restart replays every
	// statement's delete record, matching rows by equality.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c, s = open()
	defer c.Close()
	checkHistory(t, "after restart", s, history)
	c.Node(1).SetDown(true)
	checkHistory(t, "after restart, node 1 down", s, history)
}

// TestDeleteAllocsNotPerRow: a DELETE reads the table once, as a scan does — a
// selection vector per container, values boxed only for the rows it matched.
// Its allocations do not grow with the table, and a predicate the kernels
// cannot run is interpreted once per row, not once per pass of a two-pass
// delete.
func TestDeleteAllocsNotPerRow(t *testing.T) {
	c := testCluster(t, 1)
	s := sess(t, c, 0)
	var calls int64
	c.RegisterUDx("COUNTING", func(args []types.Value, _ map[string]string) (types.Value, error) {
		calls++
		return args[0], nil
	})
	deleteAllocs := func(n int) float64 {
		table := fmt.Sprintf("t%d", n)
		s.MustExecute("CREATE TABLE " + table + " (id INTEGER, v INTEGER)")
		var csv strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&csv, "%d,%d\n", i, i%7)
		}
		if _, err := s.CopyFrom("COPY "+table+" FROM STDIN FORMAT CSV DIRECT", strings.NewReader(csv.String())); err != nil {
			t.Fatal(err)
		}
		lo := 0
		allocs := testing.AllocsPerRun(3, func() {
			res := s.MustExecute(fmt.Sprintf("DELETE FROM %s WHERE id >= %d AND id < %d", table, lo, lo+10))
			if res.RowsAffected != 10 {
				t.Fatalf("deleted %d of %d rows, want 10", res.RowsAffected, n)
			}
			lo += 10
		})
		calls = 0
		res := s.MustExecute(fmt.Sprintf("DELETE FROM %s WHERE COUNTING(id) >= %d", table, n-10))
		if res.RowsAffected != 10 || calls != int64(n-40) {
			t.Errorf("%d rows: DELETE ... WHERE COUNTING(id) deleted %d rows with %d calls, want 10 rows and one call per visible row (%d)",
				n, res.RowsAffected, calls, n-40)
		}
		return allocs
	}
	small, large := deleteAllocs(10_000), deleteAllocs(100_000)
	if large > small+10 {
		t.Errorf("a 10-row DELETE allocates %.0f times on 100 000 rows, %.0f on 10 000: something allocates per stored row", large, small)
	}
}
