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

// TestAutoCheckpoint: an autocommit write runs a checkpoint once the WAL has
// grown by more than autoCheckpointWALBytes since the last one, and not
// before. The cluster's WAL byte count is advanced to just short of the
// limit, as a bulk load would have left it, and single-row INSERTs carry it
// over.
func TestAutoCheckpoint(t *testing.T) {
	c := durableCluster(t, t.TempDir())
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER) SEGMENTED BY HASH(id)")
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	last, seq := c.ckptWALBytes.Load(), c.walSeq
	c.walBytes.Add(autoCheckpointWALBytes - 1024)
	n := 0
	for ; c.walSeq == seq; n++ {
		if grown := c.walBytes.Load() - last; grown > autoCheckpointWALBytes {
			t.Fatalf("after %d inserts the WAL grew %d bytes since the last checkpoint, past the %d that trigger one, and none ran",
				n, grown, autoCheckpointWALBytes)
		}
		if n == 1000 {
			t.Fatal("1000 inserts and no checkpoint")
		}
		s.MustExecute(fmt.Sprintf("INSERT INTO t VALUES (%d)", n))
	}
	if at := c.ckptWALBytes.Load() - last; at <= autoCheckpointWALBytes {
		t.Fatalf("checkpointed with the WAL grown %d bytes, not past %d", at, autoCheckpointWALBytes)
	}
	if n < 2 {
		t.Fatalf("checkpointed after %d inserts: the first was already past the limit", n)
	}
	if v, _ := s.MustExecute("SELECT COUNT(*) FROM t").Value(); v.I != int64(n) {
		t.Errorf("count = %v, want %d", v, n)
	}
}

// TestAutoCheckpointWithCollectorDisabled: the WAL-bytes trigger does not
// depend on the monitoring collector. With it disabled, autocommit writes
// that grow the log past autoCheckpointWALBytes, but not past twice that,
// run exactly one checkpoint. Each UPDATE logs its 1 MiB row twice (the
// delete and the re-insert) while every version shares one string, so the
// log grows ~2 MiB a statement and the heap does not.
func TestAutoCheckpointWithCollectorDisabled(t *testing.T) {
	c := durableCluster(t, t.TempDir())
	c.Obs().SetEnabled(false)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER, s VARCHAR) SEGMENTED BY HASH(id)")
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	seq := c.walSeq
	const rowBytes = 1 << 20
	s.MustExecute(fmt.Sprintf("INSERT INTO t VALUES (0, '%s')", strings.Repeat("x", rowBytes)))
	updates := autoCheckpointWALBytes/(2*rowBytes) + 4
	for i := 0; i < updates; i++ {
		s.MustExecute("UPDATE t SET s = s WHERE id = 0")
	}
	if got := c.walSeq - seq; got != 1 {
		t.Fatalf("%d UPDATEs of a %d-byte row ran %d checkpoints, want 1", updates, rowBytes, got)
	}
	if v, _ := s.MustExecute("SELECT LENGTH(s) FROM t").Value(); v.I != rowBytes {
		t.Errorf("LENGTH(s) = %v, want %d", v, rowBytes)
	}
}

// TestEachInsertIsAContainer: a single-row autocommit INSERT lands as one
// container on the store its row hashes to, stamped with the INSERT's commit
// epoch, with no moveout or checkpoint to make it one.
func TestEachInsertIsAContainer(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER) SEGMENTED BY HASH(id)")
	const inserts = 16
	epochs := make(map[uint64]bool)
	for i := 0; i < inserts; i++ {
		epochs[s.MustExecute(fmt.Sprintf("INSERT INTO t VALUES (%d)", i)).Epoch] = true
	}
	tbl, _ := c.Catalog().Table("t")
	seen := make(map[uint64]bool)
	for i, st := range tbl.Stores {
		if st.ContainerCount() == 0 {
			t.Errorf("store %d holds no container", i)
		}
		for _, cont := range st.Containers() {
			e := cont.StartEpoch()
			if !epochs[e] || seen[e] || cont.RowCount != 1 {
				t.Errorf("store %d: a container of %d rows at epoch %d; want one single-row container per INSERT epoch %v",
					i, cont.RowCount, e, epochs)
			}
			seen[e] = true
		}
	}
	if len(seen) != inserts {
		t.Errorf("%d containers across the stores, want one per INSERT (%d)", len(seen), inserts)
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

// TestUpdatesDuringCheckpoint: an UPDATE names the rows it matched by position
// until it has marked them, and a checkpoint — which any session's commit can
// set off, under no table lock — runs while it does: the statement's own
// predicate sets one off after the first stores have been selected on. A
// checkpoint moves no row, so every mark lands on the row it names.
func TestUpdatesDuringCheckpoint(t *testing.T) {
	c := durableCluster(t, t.TempDir())
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE ctr (id INTEGER, v INTEGER) SEGMENTED BY HASH(id) KSAFE 1")
	const counters, rounds = 4, 10
	for g := 0; g < counters; g++ {
		s.MustExecute(fmt.Sprintf("INSERT INTO ctr VALUES (%d, 0)", g))
	}
	var checkpoints sync.WaitGroup
	c.RegisterUDx("CHECKPOINTING", func(args []types.Value, _ map[string]string) (types.Value, error) {
		checkpoints.Add(1)
		go func() {
			defer checkpoints.Done()
			if err := c.Checkpoint(); err != nil {
				t.Error(err)
			}
		}()
		time.Sleep(200 * time.Microsecond)
		return args[0], nil
	})
	for i := 0; i < rounds; i++ {
		for g := 0; g < counters; g++ {
			res, err := s.Execute(fmt.Sprintf("UPDATE ctr SET v = v + 1 WHERE CHECKPOINTING(id) = %d", g))
			if err != nil || res.RowsAffected != 1 {
				t.Fatalf("round %d counter %d: %v, %v", i, g, res, err)
			}
		}
	}
	checkpoints.Wait()
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

// TestSelectDuringCheckpoint: a scan reads each committed row exactly once
// however a checkpoint interleaves with it. The deterministic half runs a
// checkpoint from the predicate, after the scan has listed the containers of
// three INSERTs; the concurrent half runs readers against a looping
// checkpointer and a trickling writer, for the race detector and for doubled
// rows.
func TestSelectDuringCheckpoint(t *testing.T) {
	c := durableCluster(t, t.TempDir())
	s := sess(t, c, 0)
	c.RegisterUDx("CHECKPOINTING", func(args []types.Value, _ map[string]string) (types.Value, error) {
		return args[0], c.Checkpoint()
	})
	for i, q := range []string{
		"SELECT id FROM mv%d WHERE CHECKPOINTING(id) >= 0 ORDER BY id",
		"SELECT COUNT(*) FROM mv%d WHERE CHECKPOINTING(id) >= 0",
		"SELECT id, COUNT(*) FROM mv%d WHERE CHECKPOINTING(id) >= 0 GROUP BY id ORDER BY id",
	} {
		s.MustExecute(fmt.Sprintf("CREATE TABLE mv%d (id INTEGER)", i))
		s.MustExecute(fmt.Sprintf("INSERT INTO mv%d VALUES (0)", i))
		if err := c.Checkpoint(); err != nil {
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
	go func() { // the checkpointer
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				if err := c.Checkpoint(); err != nil {
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
