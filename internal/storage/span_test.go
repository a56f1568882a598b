package storage

import (
	"slices"
	"testing"

	"vsfabric/internal/vhash"
)

// TestContainerHashSpan: a container knows the ring interval its rows' hashes
// lie in — built by COPY DIRECT or a moveout, or loaded from a file written
// before containers had one (the golden container) — and a scan's batch over
// it carries that span, while the WOS's batch, which has no span, carries an
// empty one.
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
	if err := s.AppendColumns(direct, HashColumns(direct, []int{0}, 100), 4, true); err != nil {
		t.Fatal(err)
	}
	appendWOS(t, s, goldenRows(400, 420), 4)
	if err := s.Moveout(4); err != nil {
		t.Fatal(err)
	}
	appendWOS(t, s, goldenRows(420, 430), 5)
	ros := s.Containers()
	if len(ros) != 3 {
		t.Fatalf("%d containers, want the golden one, COPY DIRECT's and the moveout's", len(ros))
	}
	spans := map[*Batch]vhash.Range{}
	var wos *Batch
	if err := s.ScanBatches(Visibility{Epoch: 5}, fullRing(), func(b *Batch) bool {
		if b.ros == nil {
			wos = b
		} else {
			spans[b] = b.ros.span
		}
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
	if len(spans) != 3 || wos == nil || !wos.HashSpan.Empty() {
		t.Fatalf("%d container batches, WOS batch %v; want 3 and one with an empty span", len(spans), wos != nil)
	}
	if !hashSpan(nil).Empty() {
		t.Fatal("no rows, but a span")
	}
}
