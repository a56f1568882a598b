package txn

import (
	"errors"
	"testing"

	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

func fullRange() vhash.Range { return vhash.Range{Lo: 0, Hi: vhash.RingSize} }

func TestAHMTracksMinimumPin(t *testing.T) {
	m := NewManager()
	m.SetLastEpoch(10)
	if got := m.AHM(); got != 10 {
		t.Fatalf("no pins: AHM = %d, want lastEpoch 10", got)
	}
	rel7 := m.PinEpoch(7)
	rel3 := m.PinEpoch(3)
	rel3b := m.PinEpoch(3)
	if got := m.AHM(); got != 3 {
		t.Fatalf("pins {7,3,3}: AHM = %d, want 3", got)
	}
	rel3()
	if got := m.AHM(); got != 3 {
		t.Fatalf("one of two epoch-3 pins released: AHM = %d, want 3", got)
	}
	rel3() // idempotent: must not decrement the other reader's pin
	if got := m.AHM(); got != 3 {
		t.Fatalf("double release changed AHM to %d", got)
	}
	rel3b()
	if got := m.AHM(); got != 7 {
		t.Fatalf("epoch-3 pins gone: AHM = %d, want 7", got)
	}
	rel7()
	if got := m.AHM(); got != 10 {
		t.Fatalf("all pins gone: AHM = %d, want 10", got)
	}
	// A pin ahead of lastEpoch never raises the AHM past lastEpoch.
	rel := m.PinEpoch(99)
	if got := m.AHM(); got != 10 {
		t.Fatalf("future pin: AHM = %d, want 10", got)
	}
	rel()
}

// flakyLog fails LogCommit on demand so we can test the commit durability
// contract without a real WAL (txn must not depend on package wal).
type flakyLog struct {
	commits []uint64
	aborts  []uint64
	fail    bool
}

func (f *flakyLog) LogCommit(tag, epoch uint64) error {
	if f.fail {
		return errors.New("disk on fire")
	}
	f.commits = append(f.commits, epoch)
	return nil
}

func (f *flakyLog) LogAbort(tag uint64) error {
	f.aborts = append(f.aborts, tag)
	return nil
}

func TestCommitRequiresLog(t *testing.T) {
	m := NewManager()
	lg := &flakyLog{}
	m.SetCommitLog(lg)
	schema := types.Schema{Cols: []types.Column{{Name: "id", T: types.Int64}}}
	st := storage.NewStore(schema, nil)

	tx := m.Begin()
	appendRows(t, st, []types.Row{{types.IntValue(1)}}, tx.Tag())
	tx.NoteInsert(st)
	epoch, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if len(lg.commits) != 1 || lg.commits[0] != epoch {
		t.Fatalf("commit log saw %v, want [%d]", lg.commits, epoch)
	}

	// A failed log write must abort the transaction: the epoch does not
	// close and the provisional rows are dropped.
	lg.fail = true
	before := m.LastEpoch()
	tx2 := m.Begin()
	appendRows(t, st, []types.Row{{types.IntValue(2)}}, tx2.Tag())
	tx2.NoteInsert(st)
	if _, err := tx2.Commit(); err == nil {
		t.Fatal("commit succeeded with a failed log write")
	}
	if m.LastEpoch() != before {
		t.Fatalf("failed commit advanced the epoch: %d -> %d", before, m.LastEpoch())
	}
	n := 0
	st.Scan(storage.Visibility{Epoch: m.LastEpoch() + 10}, fullRange(), func(types.Row) bool {
		n++
		return true
	})
	if n != 1 {
		t.Fatalf("aborted rows visible: %d rows, want 1", n)
	}
}

func TestAbortWritesAbortRecord(t *testing.T) {
	m := NewManager()
	lg := &flakyLog{}
	m.SetCommitLog(lg)
	tx := m.Begin()
	tag := tx.Tag()
	tx.Abort()
	if len(lg.aborts) != 1 || lg.aborts[0] != tag {
		t.Fatalf("abort log saw %v, want [%d]", lg.aborts, tag)
	}
}

func TestSetNextTagOnlyRaises(t *testing.T) {
	m := NewManager()
	first := m.Begin()
	tagA := first.Tag()
	first.Abort()
	m.SetNextTag(tagA + 100)
	tx := m.Begin()
	if tx.Tag() != tagA+100 {
		t.Fatalf("tag = %d, want %d", tx.Tag(), tagA+100)
	}
	tx.Abort()
	m.SetNextTag(5) // lower: ignored, tags must never move backwards
	tx2 := m.Begin()
	if tx2.Tag() <= tagA+100 {
		t.Fatalf("SetNextTag lowered the tag space: %d", tx2.Tag())
	}
	tx2.Abort()
}
