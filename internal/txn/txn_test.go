package txn

import (
	"errors"
	"sync"
	"testing"
	"time"

	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

var schema = types.NewSchema(types.Column{Name: "id", T: types.Int64})

func rows(ids ...int64) []types.Row {
	out := make([]types.Row, len(ids))
	for i, id := range ids {
		out[i] = types.Row{types.IntValue(id)}
	}
	return out
}

// appendRows is the write entry for a test that holds rows: one container.
func appendRows(t testing.TB, s *storage.Store, rows []types.Row, tag uint64) {
	t.Helper()
	if err := s.AppendROS(rows, tag); err != nil {
		t.Error(err)
	}
}

// deleteWhere is a DELETE as the engine runs one: scan under vis, narrow each
// batch to the rows match keeps, then hand the batches back to be marked with
// tag. It returns the number of rows marked.
func deleteWhere(t testing.TB, s *storage.Store, vis storage.Visibility, tag uint64, match func(types.Row) bool) int {
	t.Helper()
	var selected []*storage.Batch
	err := s.ScanBatches(vis, vhash.Range{Lo: 0, Hi: vhash.RingSize}, func(b *storage.Batch) bool {
		var keep []int32
		for _, i := range b.Sel {
			if match(b.Row(int(i), nil)) {
				keep = append(keep, i)
			}
		}
		b.Sel = keep
		selected = append(selected, b)
		return true
	})
	n := 0
	for _, b := range selected {
		marked, merr := s.MarkDeleted(b, tag)
		n, err = n+marked, errors.Join(err, merr)
	}
	if err != nil {
		t.Error(err)
	}
	return n
}

func count(s *storage.Store, vis storage.Visibility) int {
	return s.RowCount(vis)
}

func TestCommitPublishesAtomically(t *testing.T) {
	m := NewManager()
	s := storage.NewStore(schema, nil)
	tx := m.Begin()
	if err := tx.Acquire("t", LockInsert); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendROS(rows(1, 2), tx.Tag()); err != nil {
		t.Fatal(err)
	}
	tx.NoteInsert(s)
	if count(s, storage.Visibility{Epoch: m.LastEpoch()}) != 0 {
		t.Error("writes visible before commit")
	}
	epoch, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Errorf("first commit epoch = %d, want 2", epoch)
	}
	if m.LastEpoch() != epoch {
		t.Error("LastEpoch should advance to commit epoch")
	}
	if count(s, storage.Visibility{Epoch: epoch}) != 2 {
		t.Error("writes not visible after commit")
	}
	if count(s, storage.Visibility{Epoch: epoch - 1}) != 0 {
		t.Error("writes visible before their epoch")
	}
}

func TestAbortDiscards(t *testing.T) {
	m := NewManager()
	s := storage.NewStore(schema, nil)
	tx := m.Begin()
	_ = s.AppendROS(rows(1), tx.Tag())
	tx.NoteInsert(s)
	tx.Abort()
	if count(s, storage.Visibility{Epoch: 100}) != 0 {
		t.Error("aborted writes must vanish")
	}
	if _, err := tx.Commit(); err != ErrTxnDone {
		t.Errorf("commit after abort = %v, want ErrTxnDone", err)
	}
	tx.Abort() // double abort is a no-op
}

func TestReadYourOwnWrites(t *testing.T) {
	m := NewManager()
	s := storage.NewStore(schema, nil)
	tx := m.Begin()
	_ = s.AppendROS(rows(7), tx.Tag())
	tx.NoteInsert(s)
	if count(s, tx.Vis()) != 1 {
		t.Error("transaction must see its own writes")
	}
	other := m.Begin()
	if count(s, other.Vis()) != 0 {
		t.Error("other transactions must not see uncommitted writes")
	}
	other.Abort()
	tx.Abort()
}

func TestConditionalUpdatePattern(t *testing.T) {
	// The S2V leader-election pattern: two transactions race to flip a flag;
	// exactly one sees an affected row and commits.
	m := NewManager()
	s := storage.NewStore(schema, nil)
	seed := m.Begin()
	_ = seed.Acquire("t", LockInsert)
	_ = s.AppendROS(rows(0), seed.Tag())
	seed.NoteInsert(s)
	if _, err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	attempt := func() bool {
		tx := m.Begin()
		defer tx.Abort()
		if err := tx.Acquire("t", LockExclusive); err != nil {
			return false
		}
		n := deleteWhere(t, s, tx.Vis(), tx.Tag(), func(r types.Row) bool { return r[0].I == 0 })
		if n == 0 {
			return false
		}
		tx.NoteDelete(s)
		appendRows(t, s, rows(1), tx.Tag())
		tx.NoteInsert(s)
		_, err := tx.Commit()
		return err == nil
	}

	var wg sync.WaitGroup
	wins := make(chan bool, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wins <- attempt()
		}()
	}
	wg.Wait()
	close(wins)
	won := 0
	for w := range wins {
		if w {
			won++
		}
	}
	if won != 1 {
		t.Errorf("conditional update won %d times, want exactly 1", won)
	}
}

func TestInsertLocksShared(t *testing.T) {
	m := NewManager()
	a, b := m.Begin(), m.Begin()
	if err := a.Acquire("t", LockInsert); err != nil {
		t.Fatal(err)
	}
	if err := b.Acquire("t", LockInsert); err != nil {
		t.Errorf("concurrent INSERT locks should be compatible: %v", err)
	}
	a.Abort()
	b.Abort()
}

func TestExclusiveBlocksInsert(t *testing.T) {
	m := NewManager()
	m.LockTimeout = 50 * time.Millisecond
	a, b := m.Begin(), m.Begin()
	if err := a.Acquire("t", LockExclusive); err != nil {
		t.Fatal(err)
	}
	if err := b.Acquire("t", LockInsert); err == nil {
		t.Error("INSERT lock should block behind EXCLUSIVE")
	}
	a.Abort()
	if err := b.Acquire("t", LockInsert); err != nil {
		t.Errorf("lock should be free after abort: %v", err)
	}
	b.Abort()
}

func TestLockUpgrade(t *testing.T) {
	m := NewManager()
	m.LockTimeout = 50 * time.Millisecond
	a := m.Begin()
	if err := a.Acquire("t", LockInsert); err != nil {
		t.Fatal(err)
	}
	if err := a.Acquire("t", LockExclusive); err != nil {
		t.Fatalf("upgrade as sole holder should succeed: %v", err)
	}
	b := m.Begin()
	if err := b.Acquire("t", LockInsert); err == nil {
		t.Error("upgraded lock should exclude inserters")
	}
	a.Abort()
	b.Abort()
}

func TestLockTimeout(t *testing.T) {
	m := NewManager()
	m.LockTimeout = 30 * time.Millisecond
	a, b := m.Begin(), m.Begin()
	_ = a.Acquire("t", LockExclusive)
	start := time.Now()
	err := b.Acquire("t", LockExclusive)
	if err == nil {
		t.Fatal("expected timeout")
	}
	if time.Since(start) > 2*time.Second {
		t.Error("timeout took far too long")
	}
	a.Abort()
	b.Abort()
}

func TestSerializedCommitsMonotonicEpochs(t *testing.T) {
	m := NewManager()
	s := storage.NewStore(schema, nil)
	const n = 20
	epochs := make([]uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx := m.Begin()
			if err := tx.Acquire("t", LockInsert); err != nil {
				t.Error(err)
				return
			}
			appendRows(t, s, rows(int64(i)), tx.Tag())
			tx.NoteInsert(s)
			e, err := tx.Commit()
			if err != nil {
				t.Error(err)
				return
			}
			epochs[i] = e
		}(i)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for _, e := range epochs {
		if e == 0 || seen[e] {
			t.Fatalf("epochs not unique: %v", epochs)
		}
		seen[e] = true
	}
	if got := count(s, storage.Visibility{Epoch: m.LastEpoch()}); got != n {
		t.Errorf("visible rows = %d, want %d", got, n)
	}
}

func TestOnCommitHook(t *testing.T) {
	m := NewManager()
	ran := false
	tx := m.Begin()
	tx.OnCommit(func() error { ran = true; return nil })
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("commit hook did not run")
	}

	// A failing hook aborts the transaction.
	s := storage.NewStore(schema, nil)
	tx2 := m.Begin()
	_ = s.AppendROS(rows(1), tx2.Tag())
	tx2.NoteInsert(s)
	tx2.OnCommit(func() error { return errFake })
	if _, err := tx2.Commit(); err == nil {
		t.Fatal("commit with failing hook should error")
	}
	if count(s, storage.Visibility{Epoch: m.LastEpoch()}) != 0 {
		t.Error("writes must be discarded when a hook fails")
	}
}

var errFake = &fakeErr{}

type fakeErr struct{}

func (*fakeErr) Error() string { return "fake" }

// TestDeleteOverMovedOutContainer: a DELETE whose scan meets a committed
// container with no delete vector — what a moveout once made of trickled
// rows, and what every write makes now — is handed the shared identity
// selection for it, and narrows into a vector of its own: deleting every other
// row marks exactly those rows and leaves the shared vector as it was.
func TestDeleteOverMovedOutContainer(t *testing.T) {
	m := NewManager()
	s := storage.NewStore(schema, nil)
	ins := m.Begin()
	if err := ins.Acquire("t", LockInsert); err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, 20)
	for i := range ids {
		ids[i] = int64(i)
	}
	appendRows(t, s, rows(ids...), ins.Tag())
	ins.NoteInsert(s)
	if _, err := ins.Commit(); err != nil {
		t.Fatal(err)
	}
	if s.ContainerCount() != 1 {
		t.Fatalf("one write left %d containers", s.ContainerCount())
	}
	del := m.Begin()
	if err := del.Acquire("t", LockExclusive); err != nil {
		t.Fatal(err)
	}
	if n := deleteWhere(t, s, del.Vis(), del.Tag(), func(r types.Row) bool { return r[0].I%2 == 1 }); n != 10 {
		t.Fatalf("deleted %d rows, want 10", n)
	}
	del.NoteDelete(s)
	if _, err := del.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := count(s, m.Begin().Vis()); got != 10 {
		t.Fatalf("%d rows left, want 10", got)
	}
	if err := storage.CheckIdentitySel(); err != nil {
		t.Fatal(err)
	}
}
