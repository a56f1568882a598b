package storage

import (
	"bytes"
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

// TestDeletedRowsStayInTheirContainer: a delete only marks its row, whatever
// the AHM — nothing is purged — so a reader at an epoch before the delete
// still sees the row, and a provisional mark hides the row from its own
// transaction alone.
func TestDeletedRowsStayInTheirContainer(t *testing.T) {
	s := NewStore(schema2, nil)
	appendRows(t, s, intRows(1), 2)
	appendRows(t, s, intRows(2), 2)
	appendRows(t, s, intRows(3), ProvisionalBase+4)
	deleteWhere(t, s, Visibility{Epoch: 6}, 6, func(r types.Row) bool { return r[0].I == 2 })
	if s.ContainerCount() != 3 || s.TotalRows() != 3 {
		t.Fatalf("%d containers of %d rows, want every write's container whole", s.ContainerCount(), s.TotalRows())
	}
	for _, c := range []struct {
		vis  Visibility
		want int
	}{{Visibility{Epoch: 3}, 2}, {Visibility{Epoch: 6}, 1}, {Visibility{Epoch: 6, Tag: ProvisionalBase + 4}, 2}} {
		if got := s.RowCount(c.vis); got != c.want {
			t.Fatalf("vis %+v: %d rows visible, want %d", c.vis, got, c.want)
		}
	}

	s = NewStore(schema2, nil)
	appendRows(t, s, intRows(9), 2)
	tag := uint64(ProvisionalBase + 8)
	deleteWhere(t, s, Visibility{Epoch: 6, Tag: tag}, tag, func(types.Row) bool { return true })
	if s.RowCount(Visibility{Epoch: 6}) != 1 || s.RowCount(Visibility{Epoch: 6, Tag: tag}) != 0 {
		t.Fatal("a provisional delete mark is not its own transaction's alone")
	}
}
