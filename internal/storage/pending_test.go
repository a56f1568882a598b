package storage

import (
	"testing"

	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

// TestCommitVisitsOnlyItsContainers: a commit visits its own transaction's
// containers, not the store's. N single-row inserts, each committed in turn
// — what a trickle table's autocommit INSERTs do, and what replaying their N
// insert and commit records does — visit N containers in all; one more
// commit then visits one, and a tag that wrote nothing none. An abort takes
// one container from the index (it then unlinks it in one walk of the list,
// which Visits does not count).
func TestCommitVisitsOnlyItsContainers(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "id", T: types.Int64})
	s := NewSegmentStore(schema, []int{0}, vhash.Range{Lo: 0, Hi: vhash.RingSize})
	insert := func(i int64, tag uint64) {
		t.Helper()
		cols := []Column{&Int64Column{Vals: []int64{i}}}
		if err := s.AppendColumns(cols, HashColumns(cols, []int{0}, 1), tag); err != nil {
			t.Fatal(err)
		}
	}
	const n = 300
	for i := int64(0); i < n; i++ {
		insert(i, ProvisionalBase+uint64(i))
		s.RebaseInserts(ProvisionalBase+uint64(i), uint64(i+1))
	}
	if got := s.Visits(); got != n {
		t.Fatalf("%d commits visited %d containers, want %d", n, got, n)
	}
	step := func(what string, want int64, op func()) {
		t.Helper()
		before := s.Visits()
		op()
		if got := s.Visits() - before; got != want {
			t.Fatalf("%s visited %d containers, want %d", what, got, want)
		}
	}
	step("one more commit", 1, func() {
		insert(n, ProvisionalBase+n)
		s.RebaseInserts(ProvisionalBase+n, n+1)
	})
	step("an abort's index lookup", 1, func() {
		insert(-1, ProvisionalBase+n+1)
		s.DropInserts(ProvisionalBase + n + 1)
	})
	step("a commit that wrote nothing here", 0, func() { s.RebaseInserts(ProvisionalBase+n+2, n+2) })
	if got := s.ContainerCount(); got != n+1 {
		t.Fatalf("%d containers, want %d", got, n+1)
	}
	for i, c := range s.Containers() {
		if c.StartEpoch() != uint64(i+1) {
			t.Fatalf("container %d has start %d, want %d", i, c.StartEpoch(), i+1)
		}
	}
	if got := s.RowCount(Visibility{Epoch: n + 1}); got != n+1 {
		t.Fatalf("%d rows visible, want %d", got, n+1)
	}
}

// TestReplaceContentsResetsPending: a store whose contents are replaced
// keeps no index entry for a container it no longer holds.
func TestReplaceContentsResetsPending(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "id", T: types.Int64})
	s := NewStore(schema, []int{0})
	cols := []Column{&Int64Column{Vals: []int64{1}}}
	if err := s.AppendColumns(cols, HashColumns(cols, []int{0}, 1), ProvisionalBase); err != nil {
		t.Fatal(err)
	}
	if err := s.ReplaceContents(&Versions{}); err != nil {
		t.Fatal(err)
	}
	before := s.Visits()
	s.DropInserts(ProvisionalBase)
	if got := s.Visits() - before; got != 0 || s.ContainerCount() != 0 {
		t.Fatalf("abort after ReplaceContents visited %d containers, store holds %d", got, s.ContainerCount())
	}
}
