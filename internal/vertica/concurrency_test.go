package vertica

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vsfabric/internal/types"
)

// TestConcurrentCopiesAndSnapshotReaders hammers one table with parallel
// COPY streams while readers repeatedly take snapshots: every snapshot must
// observe a multiple of the batch size (bulk loads are atomic), and the
// final count must be exact.
func TestConcurrentCopiesAndSnapshotReaders(t *testing.T) {
	c := testCluster(t, 4)
	setup := sess(t, c, 0)
	setup.MustExecute("CREATE TABLE t (id INTEGER, v FLOAT) SEGMENTED BY HASH(id)")

	const writers = 6
	const batches = 5
	const batchRows = 200

	var wg sync.WaitGroup
	errs := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := c.Connect(w % 4)
			if err != nil {
				errs <- err
				return
			}
			defer s.Close()
			for b := 0; b < batches; b++ {
				var sb strings.Builder
				base := (w*batches + b) * batchRows
				for i := 0; i < batchRows; i++ {
					fmt.Fprintf(&sb, "%d,%d.5\n", base+i, i)
				}
				if _, err := s.CopyFrom("COPY t FROM STDIN FORMAT CSV DIRECT", strings.NewReader(sb.String())); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s, err := c.Connect((r + 1) % 4)
			if err != nil {
				errs <- err
				return
			}
			defer s.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.Execute("SELECT COUNT(*) FROM t")
				if err != nil {
					errs <- err
					return
				}
				if n := res.Rows[0][0].I; n%batchRows != 0 {
					errs <- fmt.Errorf("snapshot saw torn bulk load: %d rows", n)
					return
				}
			}
		}(r)
	}
	// Wait for writers, then stop readers.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Poll until every writer's batches are visible.
	for {
		res := setup.MustExecute("SELECT COUNT(*) FROM t")
		if res.Rows[0][0].I == int64(writers*batches*batchRows) {
			break
		}
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
	}
	close(stop)
	<-done
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if v, _ := setup.MustExecute("SELECT COUNT(*) FROM t").Value(); v.I != writers*batches*batchRows {
		t.Errorf("final count = %v", v)
	}
}

// TestAutoMoveout exercises the WOS threshold: trickle inserts past the
// limit trigger the tuple mover, and visibility is unaffected.
func TestAutoMoveout(t *testing.T) {
	c, err := NewCluster(Config{Nodes: 2, WOSMoveoutRows: 50})
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.MustExecute("CREATE TABLE t (id INTEGER)")
	for b := 0; b < 10; b++ {
		var vals []string
		for i := 0; i < 30; i++ {
			vals = append(vals, fmt.Sprintf("(%d)", b*30+i))
		}
		s.MustExecute("INSERT INTO t VALUES " + strings.Join(vals, ", "))
	}
	if v, _ := s.MustExecute("SELECT COUNT(*) FROM t").Value(); v.I != 300 {
		t.Errorf("count = %v", v)
	}
	tbl, _ := c.Catalog().Table("t")
	ros := 0
	for _, st := range tbl.Stores {
		ros += st.ContainerCount()
	}
	if ros == 0 {
		t.Error("auto-moveout never ran (no ROS containers)")
	}

	// Buddy replicas buffer the same trickle inserts as the primaries they
	// mirror and must move out with them: a failover scan reads a buddy's WOS.
	c, err = NewCluster(Config{Nodes: 3, WOSMoveoutRows: 50})
	if err != nil {
		t.Fatal(err)
	}
	s = sess(t, c, 0)
	s.MustExecute("CREATE TABLE k (id INTEGER) SEGMENTED BY HASH(id) KSAFE 1")
	for i := 0; i < 300; i++ {
		s.MustExecute(fmt.Sprintf("INSERT INTO k VALUES (%d)", i))
	}
	tbl, _ = c.Catalog().Table("k")
	for i, st := range allStores(tbl) {
		if st.WOSLen() > 50 {
			t.Errorf("store %d (primaries, then buddies) still buffers %d rows in its WOS", i, st.WOSLen())
		}
	}
	c.Node(1).SetDown(true)
	if v, _ := s.MustExecute("SELECT COUNT(*) FROM k").Value(); v.I != 300 {
		t.Errorf("count with node 1 down = %v, want 300", v)
	}
}

// TestConcurrentDDLAndInserts: creating/dropping unrelated tables while a
// load runs must not disturb it.
func TestConcurrentDDLAndInserts(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE stable (id INTEGER)")
	var wg sync.WaitGroup
	wg.Add(2)
	errCh := make(chan error, 2)
	go func() {
		defer wg.Done()
		s2, err := c.Connect(1)
		if err != nil {
			errCh <- err
			return
		}
		defer s2.Close()
		for i := 0; i < 50; i++ {
			if _, err := s2.Execute(fmt.Sprintf("CREATE TABLE tmp_%d (a INTEGER)", i)); err != nil {
				errCh <- err
				return
			}
			if _, err := s2.Execute(fmt.Sprintf("DROP TABLE tmp_%d", i)); err != nil {
				errCh <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		s3, err := c.Connect(0)
		if err != nil {
			errCh <- err
			return
		}
		defer s3.Close()
		for i := 0; i < 50; i++ {
			if _, err := s3.Execute(fmt.Sprintf("INSERT INTO stable VALUES (%d)", i)); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if v, _ := s.MustExecute("SELECT COUNT(*) FROM stable").Value(); v.I != 50 {
		t.Errorf("count = %v", v)
	}
}

// TestUpdatesDuringMoveout: an UPDATE names the rows it matched by position
// until it has marked them, and the tuple mover — which any session's commit
// can set off on every table, under no table lock — must not move them in
// between. Here the statement's own predicate sets a moveout off after the
// first stores have been selected on: it has to wait for the marks.
func TestUpdatesDuringMoveout(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE ctr (id INTEGER, v INTEGER) SEGMENTED BY HASH(id) KSAFE 1")
	const counters, rounds = 4, 10
	for g := 0; g < counters; g++ {
		s.MustExecute(fmt.Sprintf("INSERT INTO ctr VALUES (%d, 0)", g))
	}
	var movers sync.WaitGroup
	c.RegisterUDx("MOVING", func(args []types.Value, _ map[string]string) (types.Value, error) {
		movers.Add(1)
		go func() {
			defer movers.Done()
			if err := c.Moveout(); err != nil {
				t.Error(err)
			}
		}()
		time.Sleep(200 * time.Microsecond)
		return args[0], nil
	})
	for i := 0; i < rounds; i++ {
		for g := 0; g < counters; g++ {
			res, err := s.Execute(fmt.Sprintf("UPDATE ctr SET v = v + 1 WHERE MOVING(id) = %d", g))
			if err != nil || res.RowsAffected != 1 {
				t.Fatalf("round %d counter %d: %v, %v", i, g, res, err)
			}
		}
	}
	movers.Wait()
	res := s.MustExecute("SELECT id, v FROM ctr ORDER BY id")
	if len(res.Rows) != counters {
		t.Fatalf("%d counter rows, want %d: %v", len(res.Rows), counters, res.Rows)
	}
	for g, r := range res.Rows {
		if r[0].I != int64(g) || r[1].I != rounds {
			t.Errorf("counter %d reads %v, want %d", g, r, rounds)
		}
	}
}

// TestSelectDuringMoveout: a scan reads each committed row exactly once however
// the tuple mover interleaves with it. The deterministic half is the window
// ca5d6ee left open: one row in ROS, two in the WOS, and a predicate that runs
// a moveout after the scan has listed the containers — the WOS rows then sat
// in a container the scan had not listed and a buffer it found empty (1 of 3
// rows). The concurrent half runs readers against a looping mover and a
// trickling writer, for the race detector and for doubled rows.
func TestSelectDuringMoveout(t *testing.T) {
	c := testCluster(t, 1)
	s := sess(t, c, 0)
	c.RegisterUDx("MOVING", func(args []types.Value, _ map[string]string) (types.Value, error) {
		return args[0], c.Moveout()
	})
	for i, q := range []string{
		"SELECT id FROM mv%d WHERE MOVING(id) >= 0 ORDER BY id",
		"SELECT COUNT(*) FROM mv%d WHERE MOVING(id) >= 0",
		"SELECT id, COUNT(*) FROM mv%d WHERE MOVING(id) >= 0 GROUP BY id ORDER BY id",
	} {
		s.MustExecute(fmt.Sprintf("CREATE TABLE mv%d (id INTEGER)", i))
		s.MustExecute(fmt.Sprintf("INSERT INTO mv%d VALUES (0)", i))
		if err := c.Moveout(); err != nil {
			t.Fatal(err)
		}
		s.MustExecute(fmt.Sprintf("INSERT INTO mv%d VALUES (1)", i))
		s.MustExecute(fmt.Sprintf("INSERT INTO mv%d VALUES (2)", i))
		q = fmt.Sprintf(q, i)
		want := "[[0] [1] [2]]"
		switch i {
		case 1:
			want = "[[3]]"
		case 2:
			want = "[[0 1] [1 1] [2 1]]"
		}
		if got := fmt.Sprint(s.MustExecute(q).Rows); got != want {
			t.Errorf("%s = %s, want %s", q, got, want)
		}
	}

	s.MustExecute("CREATE TABLE trickle (id INTEGER)")
	const inserts, readers = 150, 3
	var acked atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the mover
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				if err := c.Moveout(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rs, err := c.Connect(0)
			if err != nil {
				t.Error(err)
				return
			}
			defer rs.Close()
			q := []string{"SELECT id FROM trickle", "SELECT COUNT(*) FROM trickle", "SELECT id, COUNT(*) FROM trickle GROUP BY id"}[r]
			for acked.Load() < inserts {
				lo := acked.Load()
				res, err := rs.Execute(q)
				hi := acked.Load() + 1 // one insert may be committed but not yet counted
				if err != nil {
					t.Error(err)
					return
				}
				n, seen := int64(len(res.Rows)), make(map[int64]bool)
				for _, row := range res.Rows {
					if r == 1 {
						n = row[0].I
					} else if seen[row[0].I] || (r == 2 && row[1].I != 1) {
						t.Errorf("%s: id %d came back more than once", q, row[0].I)
						return
					}
					seen[row[0].I] = true
				}
				if n < lo || n > hi {
					t.Errorf("%s: %d rows, with %d inserts acknowledged before it and %d after", q, n, lo, hi-1)
					return
				}
			}
		}(r)
	}
	for i := 0; i < inserts; i++ {
		s.MustExecute(fmt.Sprintf("INSERT INTO trickle VALUES (%d)", i))
		acked.Add(1)
	}
	close(done)
	wg.Wait()
}
