package vertica

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"vsfabric/internal/storage"
)

// TestFullScanAllocatesNoSelection: a scan of a container every row of which
// it sees carries the shared identity selection, so sql_mix's GROUP BY over
// joinFixture's 60 000 fact rows allocates under 8 bytes a fact row: what is
// left is the hash table's group ordinals and the output, not a selection
// vector per container.
func TestFullScanAllocatesNoSelection(t *testing.T) {
	const rows = 60_000
	const q = "SELECT pcol, COUNT(*), SUM(c1), AVG(c2) FROM f GROUP BY pcol"
	s := joinFixture(t, rows)
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := s.ExecuteColumnar(context.Background(), q)
		runtime.ReadMemStats(&after)
		if err != nil || res.NumRows() != 100 {
			t.Fatalf("group-by: %v, %d groups", err, res.NumRows())
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	run()
	if got, bound := run(), uint64(8*rows); got > bound {
		t.Fatalf("GROUP BY over %d fact rows allocated %d bytes, bound %d", rows, got, bound)
	} else {
		t.Logf("GROUP BY over %d fact rows allocated %d bytes (bound %d)", rows, got, bound)
	}
}

// TestSharedIdentityUnderConcurrentWriters: every narrower writes into a
// vector of its own, never through the shared identity selection a scan hands
// out. GROUP BYs, SELECTs narrowed first by each kind of kernel and by a
// residual, DELETEs narrowed by the stored-hash kernel and by a kernel and a
// residual, and ORDER BYs run at once on one cluster; each must answer as it
// did alone, and under -race a write through the shared vector is a data race
// with every concurrent reader of it.
func TestSharedIdentityUnderConcurrentWriters(t *testing.T) {
	const rows, rounds = 3000, 16
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	// load creates a table through COPY DIRECT: ROS containers with no delete
	// vector, which every scan sees whole. g holds runs of 300, so it is
	// stored run-length encoded.
	load := func(s *Session, table string) error {
		if _, err := s.Execute("CREATE TABLE " + table +
			" (id INTEGER, k INTEGER, g INTEGER, v FLOAT, s VARCHAR, b BOOLEAN) SEGMENTED BY HASH(id)"); err != nil {
			return err
		}
		var csv strings.Builder
		for i := 0; i < rows; i++ {
			fmt.Fprintf(&csv, "%d,%d,%d,%d.5,s%d,%t\n", i, i%10, i/300, (i*37)%1000, i%5, i%3 == 0)
		}
		_, err := s.CopyFrom("COPY "+table+" FROM STDIN FORMAT CSV DIRECT", strings.NewReader(csv.String()))
		return err
	}
	if err := load(s, "t"); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT k, COUNT(*), SUM(v), AVG(v) FROM t GROUP BY k",
		"SELECT id, v FROM t WHERE k = 3 AND MOD(id, 7) = 2",
		"SELECT id FROM t WHERE MOD(id, 11) = 4",
		"SELECT id, k, v FROM t WHERE k < 3 ORDER BY v DESC, id",
		"SELECT id FROM t WHERE g = 4",
		"SELECT id FROM t WHERE v < 100.0",
		"SELECT id FROM t WHERE s = 's3' AND b",
		"SELECT id FROM t WHERE b = FALSE AND v < 500.0",
		"SELECT id FROM t WHERE b AND k = 2",
		"SELECT id FROM t WHERE s IS NOT NULL AND k = 1",
	}
	render := func(q string, res *Result) string {
		if strings.Contains(q, "ORDER BY") {
			return fmt.Sprint(res.Rows)
		}
		return strings.Join(rowMultiset(res.Rows), "\n")
	}
	want := make(map[string]string)
	for _, q := range queries {
		got, ref := s.MustExecute(q), oracleSelect(t, s, q)
		if strings.Contains(q, "ORDER BY") {
			sameResults(t, q, got, ref)
		} else {
			sameMultiset(t, q, rowMultiset(got.Rows), rowMultiset(ref.Rows))
		}
		want[q] = render(q, got)
	}

	// The readers run every query at least once and go on until the DELETEs
	// are done, so each DELETE has readers beside it.
	var wg sync.WaitGroup
	deletesDone := make(chan struct{})
	for w := 0; w < 3; w++ {
		ws := sess(t, c, w%2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; ; r++ {
				select {
				case <-deletesDone:
					if r >= len(queries) {
						return
					}
				default:
				}
				q := queries[(r+w)%len(queries)]
				res, err := ws.Execute(q)
				if err != nil {
					t.Error(err)
					return
				}
				if got := render(q, res); got != want[q] {
					t.Errorf("%s under concurrent writers:\n got %s\nwant %s", q, got, want[q])
					return
				}
			}
		}()
	}
	ds := sess(t, c, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(deletesDone)
		for r := 0; r < rounds; r++ {
			table := fmt.Sprintf("d%d", r)
			if err := load(ds, table); err != nil {
				t.Error(err)
				return
			}
			// k = 4 runs as a kernel, MOD(id, 3) = 1 as the residual after
			// it: the ids congruent to 4 mod 30. A DELETE compiles HASH(id)
			// to the kernel over the stored hashes.
			where, want := "k = 4 AND MOD(id, 3) = 1", int64(rows/30)
			if r%2 == 1 {
				where = "HASH(id) >= 2147483648"
				res, err := ds.Execute("SELECT COUNT(*) FROM " + table + " WHERE " + where)
				if err != nil {
					t.Error(err)
					return
				}
				want = res.Rows[0][0].I
			}
			res, err := ds.Execute("DELETE FROM " + table + " WHERE " + where)
			if err != nil {
				t.Error(err)
				return
			}
			if res.RowsAffected != want {
				t.Errorf("DELETE FROM %s WHERE %s removed %d rows, want %d", table, where, res.RowsAffected, want)
				return
			}
		}
	}()
	wg.Wait()
}

// TestReplayedDeleteLeavesIdentity: replay re-applies a logged DELETE by
// equality over the stores as the checkpoint left them — containers with no
// delete vector, which a scan sees whole — narrowing into a vector of its own:
// the reopened table holds the rows it held, and the shared identity is as it
// was.
func TestReplayedDeleteLeavesIdentity(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, dir)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE rd (id INTEGER, v FLOAT) SEGMENTED BY HASH(id)")
	var csv strings.Builder
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&csv, "%d,%d.5\n", i, i)
	}
	if _, err := s.CopyFrom("COPY rd FROM STDIN FORMAT CSV DIRECT", strings.NewReader(csv.String())); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.MustExecute("DELETE FROM rd WHERE MOD(id, 7) = 3")
	want := dumpTable(s, "rd")
	s.Close()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := durableCluster(t, dir)
	defer c2.Close()
	if got := dumpTable(sess(t, c2, 0), "rd"); strings.Join(got, "\n") != strings.Join(want, "\n") || len(want) != 500-71 {
		t.Fatalf("after replay: %d rows, want %d of 500", len(got), len(want))
	}
	if err := storage.CheckIdentitySel(); err != nil {
		t.Fatal(err)
	}
}
