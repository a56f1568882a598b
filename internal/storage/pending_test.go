package storage

import (
	"fmt"
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
	s := NewStore(schema, []int{0})
	insert := func(i int64, tag uint64) {
		t.Helper()
		cols := []Column{&Int64Column{Vals: []int64{i}}}
		if err := s.AppendColumns(cols, HashColumns(cols, []int{0}, 1), tag, nil); err != nil {
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

// TestDeleteCommitVisitsOnlyItsContainers: a commit rewrites the delete
// marks of the containers its transaction marked, not the store's. After N
// single-row DELETEs, each of a row in its own container and committed in
// turn, one more DELETE's commit visits one container (marking it twice in
// a row files it once); so does an abort's, and a tag that marked nothing
// here visits none.
func TestDeleteCommitVisitsOnlyItsContainers(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "id", T: types.Int64})
	s := NewStore(schema, []int{0})
	const n = 300
	for i := int64(0); i < n+2; i++ {
		cols := []Column{&Int64Column{Vals: []int64{i}}}
		if err := s.AppendColumns(cols, HashColumns(cols, []int{0}, 1), 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	var rows []*Batch // one batch per container, each selecting its one row
	if err := s.ScanBatches(Visibility{Epoch: 1}, vhash.Range{Lo: 0, Hi: vhash.RingSize}, func(b *Batch) bool {
		rows = append(rows, b)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	mark := func(b *Batch, tag uint64) {
		t.Helper()
		if got, err := s.MarkDeleted(b, tag); got != 1 || err != nil {
			t.Fatalf("MarkDeleted = %d, %v; want 1 row", got, err)
		}
	}
	step := func(what string, want int64, op func()) {
		t.Helper()
		before := s.Visits()
		op()
		if got := s.Visits() - before; got != want {
			t.Fatalf("%s visited %d containers, want %d", what, got, want)
		}
	}
	step(fmt.Sprintf("%d delete commits", n), n, func() {
		for i := range n {
			mark(rows[i], ProvisionalBase+uint64(i))
			s.RebaseDeletes(ProvisionalBase+uint64(i), uint64(i+2))
		}
	})
	step("one more delete commit", 1, func() {
		mark(rows[n], ProvisionalBase+n)
		mark(rows[n], ProvisionalBase+n)
		s.RebaseDeletes(ProvisionalBase+n, n+2)
	})
	step("an abort", 1, func() {
		mark(rows[n+1], ProvisionalBase+n+1)
		s.ClearDeletes(ProvisionalBase + n + 1)
	})
	step("a commit that marked nothing here", 0, func() { s.RebaseDeletes(ProvisionalBase+n+2, n+3) })
	if got := s.RowCount(Visibility{Epoch: n + 3}); got != 1 {
		t.Fatalf("%d rows visible, want the one whose delete aborted", got)
	}
}

// TestReplaceContentsResetsPending: a store whose contents are replaced
// keeps no index entry for a container it no longer holds.
func TestReplaceContentsResetsPending(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "id", T: types.Int64})
	s := NewStore(schema, []int{0})
	cols := []Column{&Int64Column{Vals: []int64{1}}}
	if err := s.AppendColumns(cols, HashColumns(cols, []int{0}, 1), ProvisionalBase, nil); err != nil {
		t.Fatal(err)
	}
	// The source's own provisional container is not adopted either.
	src := NewStore(schema, []int{0})
	if err := src.AppendColumns(cols, HashColumns(cols, []int{0}, 1), ProvisionalBase, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.ReplaceContents(src); err != nil {
		t.Fatal(err)
	}
	before := s.Visits()
	s.DropInserts(ProvisionalBase)
	if got := s.Visits() - before; got != 0 || s.ContainerCount() != 0 {
		t.Fatalf("abort after ReplaceContents visited %d containers, store holds %d", got, s.ContainerCount())
	}
}
