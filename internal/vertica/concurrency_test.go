package vertica

import (
	"fmt"
	"strings"
	"sync"
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
