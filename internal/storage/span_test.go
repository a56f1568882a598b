package storage

import (
	"slices"
	"testing"

	"vsfabric/internal/vhash"
)

// TestContainerHashSpan: a container knows the ring interval its rows' hashes
// lie in — built by a write or by a move's write carrying delete marks,
// adopted by recovery, or loaded from a file written before containers had
// one (the golden container) — and a scan's batch over it carries that span.
func TestContainerHashSpan(t *testing.T) {
	spanOf := func(hashes []uint32) vhash.Range {
		return vhash.Range{Lo: uint64(slices.Min(hashes)), Hi: uint64(slices.Max(hashes)) + 1}
	}
	golden, err := UnmarshalContainer(readGolden(t, "golden-761dcd3.vrc2"))
	if err != nil {
		t.Fatal(err)
	}
	if want := spanOf(golden.Hashes); golden.span != want {
		t.Fatalf("loaded span %v, want %v", golden.span, want)
	}

	s := NewStore(goldenSchema(), []int{0})
	s.AttachContainer(golden)
	direct, err := ColumnsFromRows(goldenRows(300, 400), goldenSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendColumns(direct, HashColumns(direct, []int{0}, 100), 4, nil); err != nil {
		t.Fatal(err)
	}
	moved := NewStore(goldenSchema(), []int{0})
	appendRows(t, moved, goldenRows(400, 420), 5)
	for _, c := range moved.Containers() {
		marks := make([]uint64, c.RowCount)
		marks[1] = 5
		if err := s.AppendColumns(c.Cols, c.Hashes, c.StartEpoch(), marks); err != nil {
			t.Fatal(err)
		}
	}
	ros := s.Containers()
	if len(ros) != 3 {
		t.Fatalf("%d containers, want the golden one, the write's and the move's", len(ros))
	}
	adopted := NewStore(goldenSchema(), []int{0})
	if err := adopted.ReplaceContents(s); err != nil {
		t.Fatal(err)
	}
	got := adopted.Containers()
	if len(got) != len(ros) {
		t.Fatalf("recovery adopted %d containers of %d", len(got), len(ros))
	}
	for k, c := range got {
		if c.span != ros[k].span {
			t.Errorf("adopted container %d: span %v, its source's %v", k, c.span, ros[k].span)
		}
	}
	spans := map[*Batch]vhash.Range{}
	if err := s.ScanBatches(Visibility{Epoch: 5}, fullRing(), func(b *Batch) bool {
		spans[b] = b.ros.span
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for _, c := range ros {
		if want := spanOf(c.Hashes); c.span != want || c.span.Width() == 0 {
			t.Errorf("container of %d rows: span %v, want %v", c.RowCount, c.span, want)
		}
	}
	for b, want := range spans {
		if b.HashSpan != want {
			t.Errorf("batch span %v, its container's %v", b.HashSpan, want)
		}
	}
	if len(spans) != 3 {
		t.Fatalf("%d container batches, want 3", len(spans))
	}
	if !hashSpan(nil).Empty() {
		t.Fatal("no rows, but a span")
	}
}
