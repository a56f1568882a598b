package storage

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"vsfabric/internal/types"
)

func persistSchema() types.Schema {
	return types.Schema{Cols: []types.Column{
		{Name: "id", T: types.Int64},
		{Name: "score", T: types.Float64},
		{Name: "name", T: types.Varchar},
		{Name: "ok", T: types.Bool},
	}}
}

func persistRows() []types.Row {
	return []types.Row{
		{types.IntValue(1), types.FloatValue(1.5), types.StringValue("a"), types.BoolValue(true)},
		{types.IntValue(-7), types.NullValue(types.Float64), types.StringValue(""), types.BoolValue(false)},
		{types.NullValue(types.Int64), types.FloatValue(-0.25), types.NullValue(types.Varchar), types.NullValue(types.Bool)},
	}
}

// rosContainer builds the container AppendROS would attach for rows.
func rosContainer(rows []types.Row, schema types.Schema, segIdx []int, start uint64) (*ROSContainer, error) {
	cols, err := ColumnsFromRows(rows, schema)
	if err != nil {
		return nil, err
	}
	return newContainer(cols, len(rows), schema, HashColumns(cols, segIdx, len(rows)), start, nil)
}

func TestEncodeRowsRoundTrip(t *testing.T) {
	schema := persistSchema()
	rows := persistRows()
	data, err := EncodeRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	gotSchema, gotRows, err := DecodeRows(data)
	if err != nil {
		t.Fatal(err)
	}
	if gotSchema.NumCols() != schema.NumCols() {
		t.Fatalf("schema lost columns: %d vs %d", gotSchema.NumCols(), schema.NumCols())
	}
	if !rowsEqual(gotRows, rows) {
		t.Fatalf("rows changed across encode/decode:\n got %v\nwant %v", gotRows, rows)
	}
	// Empty batch must round-trip too (a COPY of zero rows is legal).
	data, err = EncodeRows(schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, gotRows, err = DecodeRows(data); err != nil || len(gotRows) != 0 {
		t.Fatalf("empty batch: %v rows, err %v", gotRows, err)
	}
}

func TestMarshalContainerRoundTrip(t *testing.T) {
	schema := persistSchema()
	rows := persistRows()
	c, err := rosContainer(rows, schema, []int{0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// One committed delete, one provisional delete mark. The provisional mark
	// must be written as live — the WAL replays it, not the container file.
	c.mu.Lock()
	c.del = make([]uint64, len(rows))
	c.del[0] = 5
	c.del[1] = ProvisionalBase + 9
	c.mu.Unlock()

	data, err := MarshalContainer(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalContainer(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.StartEpoch() != 3 || got.RowCount != len(rows) {
		t.Fatalf("start=%d rows=%d", got.StartEpoch(), got.RowCount)
	}
	for i := range rows {
		if got.Hashes[i] != c.Hashes[i] {
			t.Fatalf("hash %d changed: %d vs %d", i, got.Hashes[i], c.Hashes[i])
		}
		gr := got.Row(i)
		for j := range rows[i] {
			if types.Compare(gr[j], rows[i][j]) != 0 {
				t.Fatalf("row %d col %d: %v vs %v", i, j, gr[j], rows[i][j])
			}
		}
	}
	if got.del[0] != 5 {
		t.Fatalf("committed delete lost: del[0]=%d", got.del[0])
	}
	if got.del[1] != 0 {
		t.Fatalf("provisional delete persisted: del[1]=%d", got.del[1])
	}

	// No-deletes container round-trips with a nil delete vector.
	c2, _ := rosContainer(rows, schema, []int{0}, 2)
	data2, err := MarshalContainer(c2)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := UnmarshalContainer(data2)
	if err != nil {
		t.Fatal(err)
	}
	if got2.del != nil {
		t.Fatalf("expected nil delete vector, got %v", got2.del)
	}
}

func TestMarshalContainerRefusesProvisional(t *testing.T) {
	c, _ := rosContainer(persistRows(), persistSchema(), []int{0}, ProvisionalBase+1)
	if _, err := MarshalContainer(c); err == nil {
		t.Fatal("provisional container must not be persistable")
	}
}

func TestUnmarshalContainerRejectsCorruption(t *testing.T) {
	c, _ := rosContainer(persistRows(), persistSchema(), []int{0}, 2)
	data, err := MarshalContainer(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x40
		if _, err := UnmarshalContainer(bad); err == nil {
			t.Fatalf("flipped byte at %d went undetected", off)
		} else if !strings.Contains(err.Error(), "checksum") && !strings.Contains(err.Error(), "CRC") {
			t.Logf("corruption surfaced as: %v", err)
		}
	}
	if _, err := UnmarshalContainer(data[:8]); err == nil {
		t.Fatal("truncated container went undetected")
	}
	// The retired VRC1 magic under a valid checksum is refused by name, not
	// misread as the current layout.
	old := bytes.NewBuffer(append([]byte("VRC1"), data[4:len(data)-4]...))
	if _, err := UnmarshalContainer(sealCRC(old)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("VRC1 container: err = %v, want bad-magic error", err)
	}
}

// TestUnmarshalContainerRejectsMistypedZoneMap: a checksum-valid container
// whose zone map bounds a column with a value of another type is refused, so
// every bound CanPrune reads is of its column's type.
func TestUnmarshalContainerRejectsMistypedZoneMap(t *testing.T) {
	for _, bound := range []string{"min", "max"} {
		c, _ := rosContainer(persistRows(), persistSchema(), []int{0}, 2)
		if bound == "min" {
			c.stats[0].Min = types.StringValue("a")
		} else {
			c.stats[0].Max = types.StringValue("z")
		}
		data, err := MarshalContainer(c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := UnmarshalContainer(data); err == nil {
			t.Fatalf("a VARCHAR %s on an INTEGER column unmarshalled", bound)
		}
	}
}

// TestDrainCommittedRespectsAHM pins down the moveout row-loss bug: a row
// whose committed delete epoch is ahead of the AHM moves to ROS with its mark,
// so pinned readers between insert and delete still see it, and only the
// uncommitted insert stays in the WOS.
func TestDrainCommittedRespectsAHM(t *testing.T) {
	mk := func() *Store {
		s := NewStore(schema2, nil)
		appendWOS(t, s, intRows(1), 2) // live committed
		appendWOS(t, s, intRows(2), 2) // deleted at 6
		appendWOS(t, s, intRows(3), ProvisionalBase+4)
		deleteWhere(t, s, Visibility{Epoch: 6}, 6, func(r types.Row) bool { return r[0].I == 2 })
		return s
	}
	onlyProvisional := func(what string, s *Store) {
		t.Helper()
		w := s.wos.buf
		if w.Len() != 1 || w.Starts[0] != ProvisionalBase+4 {
			t.Fatalf("%s: WOS holds %d rows starting %v, want the provisional insert alone", what, w.Len(), w.Starts)
		}
	}

	// AHM behind the delete: the deleted row moves with its mark, not purged.
	s := mk()
	from, drained := s.wos.DrainCommitted(3)
	if len(drained) != 2 || from.Columns()[0].Get(int(drained[0])).I != 1 || from.Columns()[0].Get(int(drained[1])).I != 2 || from.Dels[drained[1]] != 6 {
		t.Fatalf("ahm=3 drained %v of %v", drained, from.Columns()[0])
	}
	onlyProvisional("ahm=3", s)
	if err := s.ImportVersions(from, drained); err != nil {
		t.Fatal(err)
	}
	// A reader pinned at epoch 3 must still see row 2 after the drain.
	seen := 0
	for _, r := range collectScan(s, Visibility{Epoch: 3}, fullRing()) {
		if r[0].I == 2 {
			seen++
		}
	}
	if seen != 1 {
		t.Fatal("pinned reader lost the deleted-but-retained row")
	}

	// AHM at the delete epoch: purge is now safe.
	s = mk()
	if _, drained = s.wos.DrainCommitted(6); len(drained) != 1 {
		t.Fatalf("ahm=6: drained %d, want 1", len(drained))
	}
	onlyProvisional("ahm=6", s)

	// Provisional delete mark: the row moves, carrying the mark, whatever the
	// AHM; its own transaction no longer sees the row, everyone else does.
	s = NewStore(schema2, nil)
	appendWOS(t, s, intRows(9), 2)
	tag := uint64(ProvisionalBase + 8)
	deleteWhere(t, s, Visibility{Epoch: 6, Tag: tag}, tag, func(types.Row) bool { return true })
	if err := s.Moveout(100); err != nil {
		t.Fatal(err)
	}
	if s.WOSLen() != 0 || s.ContainerCount() != 1 {
		t.Fatalf("provisionally deleted row: %d WOS rows, %d containers; want it moved out", s.WOSLen(), s.ContainerCount())
	}
	if s.RowCount(Visibility{Epoch: 6}) != 1 || s.RowCount(Visibility{Epoch: 6, Tag: tag}) != 0 {
		t.Fatal("a provisional mark moved out changed what a reader sees")
	}
}

// TestDrainCommittedDuringRebase: a commit rewriting a provisional delete mark
// while a moveout carries the mark from the WOS into a container finds it in
// one or the other, never in neither. The rewrite starts once the buffer is
// drained, while the moveout still builds its container.
func TestDrainCommittedDuringRebase(t *testing.T) {
	const n = 20000
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	tag := uint64(ProvisionalBase + 5)
	for trial := 0; trial < 10; trial++ {
		s := NewStore(schema2, []int{0})
		appendWOS(t, s, intRows(ids...), 2)
		deleteWhere(t, s, Visibility{Epoch: 2, Tag: tag}, tag, func(r types.Row) bool { return r[0].I%2 == 0 })
		moved := make(chan error, 1)
		go func() { moved <- s.Moveout(2) }()
		for s.WOSLen() != 0 {
			runtime.Gosched()
		}
		s.RebaseDeletes(tag, 3)
		if err := <-moved; err != nil {
			t.Fatal(err)
		}
		if got := s.RowCount(Visibility{Epoch: 3}); got != n/2 {
			t.Fatalf("trial %d: %d rows visible once the delete committed, want %d", trial, got, n/2)
		}
	}
}

// TestMoveoutContainerOrderDeterministic: rows buffered at multiple epochs
// must produce containers in ascending epoch order, every time. (The old code
// ranged over a map — ordering varied run to run, so two buddy replicas could
// disagree on container layout.)
func TestMoveoutContainerOrderDeterministic(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		s := NewStore(batchSchema(), []int{0})
		// Interleave epochs out of order on purpose.
		for _, e := range []uint64{5, 2, 9, 3, 7} {
			appendWOS(t, s, batchRows(int(e)*10, int(e)*10+3), e)
		}
		if err := s.Moveout(9); err != nil {
			t.Fatal(err)
		}
		cs := s.Containers()
		if len(cs) != 5 {
			t.Fatalf("trial %d: %d containers, want 5", trial, len(cs))
		}
		var prev uint64
		for i, c := range cs {
			if c.StartEpoch() <= prev {
				t.Fatalf("trial %d: container %d epoch %d not ascending (prev %d)",
					trial, i, c.StartEpoch(), prev)
			}
			prev = c.StartEpoch()
		}
	}
}
