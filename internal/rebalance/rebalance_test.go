package rebalance

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"vsfabric/internal/catalog"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

// buildTable creates an n-node table and loads rows the way the engine's
// write path does: each row lands in its hash-home primary store and in the
// buddy stores covering that segment.
func buildTable(t *testing.T, n, ksafety int, segmented bool, nRows int, epoch uint64) *catalog.Table {
	t.Helper()
	cat := catalog.New(n)
	def := catalog.TableDef{
		Name:      "t",
		Schema:    types.NewSchema(types.Column{Name: "id", T: types.Int64}),
		Segmented: segmented,
		KSafety:   ksafety,
	}
	if segmented {
		def.SegCols = []string{"id"}
	}
	tbl, err := cat.CreateTable(def, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, nRows)
	for i := range rows {
		rows[i] = types.Row{types.IntValue(int64(i))}
	}
	addRows(t, tbl, rows, epoch)
	return tbl
}

func addRows(t *testing.T, tbl *catalog.Table, rows []types.Row, epoch uint64) {
	t.Helper()
	n := len(tbl.Ring)
	if !tbl.Def.Segmented {
		for _, st := range tbl.Stores {
			if err := st.AppendROS(rows, epoch); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	buckets := make([][]types.Row, n)
	for _, r := range rows {
		seg := vhash.SegmentOf(tbl.RowHash(r), n)
		buckets[seg] = append(buckets[seg], r)
	}
	for seg, b := range buckets {
		if len(b) == 0 {
			continue
		}
		if err := tbl.Stores[seg].AppendROS(b, epoch); err != nil {
			t.Fatal(err)
		}
		for r := range tbl.Buddies {
			host := (seg + r + 1) % n
			if err := tbl.Buddies[r][host].AppendROS(b, epoch); err != nil {
				t.Fatal(err)
			}
		}
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

// deleteEverywhere applies a committed delete to every replica, as the
// engine's delete path does.
func deleteEverywhere(t testing.TB, tbl *catalog.Table, epoch uint64, match func(types.Row) bool) {
	vis := storage.Visibility{Epoch: epoch - 1}
	for _, st := range tbl.Stores {
		deleteWhere(t, st, vis, epoch, match)
	}
	for _, rep := range tbl.Buddies {
		for _, st := range rep {
			deleteWhere(t, st, vis, epoch, match)
		}
	}
}

// versionsString spells out a store's committed history: every container's
// values, hashes, insert epoch and committed delete marks, in container order.
func versionsString(t testing.TB, s *storage.Store) string {
	t.Helper()
	var b strings.Builder
	for _, c := range s.Containers() {
		start, del := c.Committed(nil)
		rows := storage.Materialize([]*storage.Batch{{Cols: c.Cols, Sel: storage.IdentitySel(c.RowCount)}})
		fmt.Fprint(&b, rows, c.Hashes, start, del, "\n")
	}
	return b.String()
}

func countAt(stores []*storage.Store, epoch uint64) int {
	total := 0
	for _, st := range stores {
		total += st.RowCount(storage.Visibility{Epoch: epoch})
	}
	return total
}

func TestRingHelpers(t *testing.T) {
	ring := []int{0, 1, 2, 3}
	if got := RingWithout(ring, 2); !RingsEqual(got, []int{0, 1, 3}) {
		t.Fatalf("RingWithout = %v", got)
	}
	if got := RingWithout(ring, 9); !RingsEqual(got, ring) {
		t.Fatalf("RingWithout of absent id = %v", got)
	}
	if RingsEqual([]int{0, 1}, []int{1, 0}) {
		t.Fatal("RingsEqual must be order-sensitive")
	}
	if RingsEqual([]int{0, 1}, []int{0, 1, 2}) {
		t.Fatal("RingsEqual must compare lengths")
	}
}

// TestMoveTableGrow moves a 3-node KSAFE 1 table onto a 4-node ring and
// checks the new layout is complete, correctly homed, buddy-consistent, and
// answers historical epochs exactly as the old layout did.
func TestMoveTableGrow(t *testing.T) {
	const nRows = 240
	tbl := buildTable(t, 3, 1, true, nRows, 1)
	deleteEverywhere(t, tbl, 2, func(r types.Row) bool { return r[0].I < 60 })

	newRing := []int{0, 1, 2, 3}
	lay, res, err := MoveTable(tbl, newRing, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !RingsEqual(lay.Ring, newRing) {
		t.Fatalf("layout ring = %v", lay.Ring)
	}
	if len(lay.Stores) != 4 || len(lay.Buddies) != 1 || len(lay.Buddies[0]) != 4 {
		t.Fatalf("layout shape: %d stores, %d buddy rows", len(lay.Stores), len(lay.Buddies))
	}
	if res.Rows != nRows {
		t.Fatalf("res.Rows = %d, want %d (every version placed, live and deleted)", res.Rows, nRows)
	}
	if res.RowsMoved == 0 || res.RowsMoved >= nRows {
		t.Fatalf("res.RowsMoved = %d, want some-but-not-all", res.RowsMoved)
	}

	// Same answer at every epoch, old layout and new.
	for _, e := range []uint64{1, 2} {
		if got, want := countAt(lay.Stores, e), countAt(tbl.Stores, e); got != want {
			t.Fatalf("epoch %d: new layout has %d rows, old %d", e, got, want)
		}
	}
	if got := countAt(lay.Stores, 1); got != nRows {
		t.Fatalf("pre-delete epoch count = %d, want %d", got, nRows)
	}
	if got := countAt(lay.Stores, 2); got != nRows-60 {
		t.Fatalf("post-delete epoch count = %d, want %d", got, nRows-60)
	}

	// Every row sits in its hash home on the new ring, and each buddy store
	// mirrors exactly the segment the convention assigns it.
	for p, st := range lay.Stores {
		st.Scan(storage.Visibility{Epoch: 2}, vhash.Range{Lo: 0, Hi: vhash.RingSize}, func(r types.Row) bool {
			if home := vhash.SegmentOf(vhash.HashRow(r, tbl.SegIdx), 4); home != p {
				t.Fatalf("row %v in position %d, hash home %d", r, p, home)
			}
			return true
		})
	}
	for p := range lay.Buddies[0] {
		seg := ((p-1)%4 + 4) % 4
		got := lay.Buddies[0][p].RowCount(storage.Visibility{Epoch: 2})
		want := lay.Stores[seg].RowCount(storage.Visibility{Epoch: 2})
		if got != want {
			t.Fatalf("buddy at position %d holds %d rows, segment %d has %d", p, got, seg, want)
		}
	}

	// The old layout is untouched: in-flight readers of the old *Table stay
	// correct.
	if got := countAt(tbl.Stores, 2); got != nRows-60 {
		t.Fatalf("old layout disturbed: %d rows", got)
	}
}

// TestMoveTableAfterMoveoutAndDelete: rows written one at a time make
// single-row containers with no delete vector — the containers a moveout of
// trickled rows once made — which a DELETE's scan is handed whole as the
// shared identity selection. Deleting every third row narrows into vectors of
// the DELETE's own — the shared vector is left as it was — and the move
// answers both epochs exactly as the old layout does.
func TestMoveTableAfterMoveoutAndDelete(t *testing.T) {
	const nRows = 240
	tbl := buildTable(t, 3, 1, true, 0, 1)
	n := len(tbl.Ring)
	rows := make(map[*storage.Store]int)
	for i := 0; i < nRows; i++ {
		r := types.Row{types.IntValue(int64(i))}
		seg := vhash.SegmentOf(tbl.RowHash(r), n)
		stores := []*storage.Store{tbl.Stores[seg]}
		for b := range tbl.Buddies {
			stores = append(stores, tbl.Buddies[b][(seg+b+1)%n])
		}
		for _, st := range stores {
			cols, err := storage.ColumnsFromRows([]types.Row{r}, st.Schema())
			if err == nil {
				err = st.AppendColumns(cols, storage.HashColumns(cols, st.SegIdx(), 1), 1, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			rows[st]++
		}
	}
	all := append([]*storage.Store(nil), tbl.Stores...)
	for _, rep := range tbl.Buddies {
		all = append(all, rep...)
	}
	for _, st := range all {
		if st.ContainerCount() != rows[st] {
			t.Fatalf("%d containers for %d single-row writes", st.ContainerCount(), rows[st])
		}
	}
	deleteEverywhere(t, tbl, 2, func(r types.Row) bool { return r[0].I%3 == 1 })
	if err := storage.CheckIdentitySel(); err != nil {
		t.Fatal(err)
	}
	lay, _, err := MoveTable(tbl, []int{0, 1, 2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for e, want := range map[uint64]int{1: nRows, 2: nRows - nRows/3} {
		if got, old := countAt(lay.Stores, e), countAt(tbl.Stores, e); got != want || old != want {
			t.Fatalf("epoch %d: new layout has %d rows, old %d; want %d", e, got, old, want)
		}
	}
}

// TestMoveTableShrink drains a node and checks no rows are lost and nothing
// lands on the departed node.
func TestMoveTableShrink(t *testing.T) {
	const nRows = 200
	tbl := buildTable(t, 4, 1, true, nRows, 1)
	newRing := RingWithout(tbl.Ring, 2)
	lay, res, err := MoveTable(tbl, newRing, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != nRows {
		t.Fatalf("res.Rows = %d", res.Rows)
	}
	if got := countAt(lay.Stores, 1); got != nRows {
		t.Fatalf("shrink lost rows: %d, want %d", got, nRows)
	}
	for _, id := range lay.Ring {
		if id == 2 {
			t.Fatal("departed node still in the layout ring")
		}
	}
}

// TestMoveTableUnsegmented: a replicated table lands fully on every member of
// the new ring.
func TestMoveTableUnsegmented(t *testing.T) {
	tbl := buildTable(t, 2, 0, false, 50, 1)
	lay, res, err := MoveTable(tbl, []int{0, 1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 50 {
		t.Fatalf("res.Rows = %d", res.Rows)
	}
	if res.RowsMoved != 50 {
		t.Fatalf("res.RowsMoved = %d, want 50 (one full new replica)", res.RowsMoved)
	}
	for p, st := range lay.Stores {
		if got := st.RowCount(storage.Visibility{Epoch: 1}); got != 50 {
			t.Fatalf("replica %d has %d rows, want 50", p, got)
		}
	}
	if lay.Buddies != nil {
		t.Fatal("unsegmented layout must not carry buddies")
	}
}

// TestSourceForFallback: a dead primary's segment exports from a buddy; with
// every replica dead the move reports k-safety exhaustion.
func TestSourceForFallback(t *testing.T) {
	tbl := buildTable(t, 3, 1, true, 90, 1)
	deadPrimary := func(id int) bool { return id != tbl.Ring[0] }
	src, err := SourceFor(tbl, 0, deadPrimary)
	if err != nil {
		t.Fatal(err)
	}
	if src != tbl.Buddies[0][1] {
		t.Fatal("SourceFor did not pick segment 0's buddy on position 1")
	}
	// Segment 0 lives on position 0 (primary) and position 1 (buddy): with
	// both nodes dead the segment is unrecoverable.
	bothDead := func(id int) bool { return id != tbl.Ring[0] && id != tbl.Ring[1] }
	if _, err := SourceFor(tbl, 0, bothDead); err == nil {
		t.Fatal("SourceFor with no live replica must fail")
	}
	if _, _, err := MoveTable(tbl, []int{0, 1, 2, 3}, bothDead); err == nil || !strings.Contains(err.Error(), "k-safety exhausted") {
		t.Fatalf("MoveTable with a lost segment: %v", err)
	}
}

func TestMoveTableValidation(t *testing.T) {
	tbl := buildTable(t, 2, 1, true, 10, 1)
	cases := []struct {
		ring []int
		why  string
	}{
		{nil, "empty ring"},
		{[]int{0, 0}, "duplicate node"},
		{[]int{-1, 0}, "negative node id"},
		{[]int{0}, "k-safety 1 needs > 1 node"},
	}
	for _, c := range cases {
		if _, _, err := MoveTable(tbl, c.ring, nil); err == nil {
			t.Errorf("MoveTable(%v) should fail: %s", c.ring, c.why)
		}
	}
}

// TestMoveTableDeterministic: the same inputs produce byte-identical layouts
// — the property WAL replay of a rebalance record relies on.
func TestMoveTableDeterministic(t *testing.T) {
	tbl := buildTable(t, 3, 1, true, 150, 1)
	ring := []int{0, 1, 2, 3}
	a, _, err := MoveTable(tbl, ring, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := MoveTable(tbl, ring, nil)
	if err != nil {
		t.Fatal(err)
	}
	for p := range a.Stores {
		if av, bv := versionsString(t, a.Stores[p]), versionsString(t, b.Stores[p]); av != bv {
			t.Fatalf("position %d differs between identical moves", p)
		}
	}
}

// TestMovedReplicasOwnTheirDeleteVectors: the replicas of a new segment share
// the moved vectors but not their delete marks, so a DELETE that reaches one
// replica only leaves the other's rows as they were.
func TestMovedReplicasOwnTheirDeleteVectors(t *testing.T) {
	const nRows = 240
	tbl := buildTable(t, 3, 1, true, nRows, 1)
	deleteEverywhere(t, tbl, 2, func(r types.Row) bool { return r[0].I < 60 })
	lay, _, err := MoveTable(tbl, []int{0, 1, 2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	vis := storage.Visibility{Epoch: 3}
	for seg := range lay.Ring {
		reps := lay.Replicas(seg)
		want := reps[1].Store.RowCount(vis)
		deleteWhere(t, reps[0].Store, storage.Visibility{Epoch: 2}, 3, func(types.Row) bool { return true })
		if got := reps[0].Store.RowCount(vis); got != 0 {
			t.Fatalf("segment %d: %d rows left on the primary after deleting all", seg, got)
		}
		if got := reps[1].Store.RowCount(vis); got != want || want == 0 {
			t.Fatalf("segment %d: buddy holds %d live rows after a delete on its primary only, want %d", seg, got, want)
		}
	}
}
