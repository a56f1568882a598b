package storage

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

func fullRing() vhash.Range { return vhash.Range{Lo: 0, Hi: vhash.RingSize} }

var schema2 = types.NewSchema(
	types.Column{Name: "id", T: types.Int64},
	types.Column{Name: "name", T: types.Varchar},
)

func intRows(ids ...int64) []types.Row {
	out := make([]types.Row, len(ids))
	for i, id := range ids {
		out[i] = types.Row{types.IntValue(id), types.StringValue("r")}
	}
	return out
}

func TestBuilderTypeCheck(t *testing.T) {
	b := NewBuilder(types.Int64)
	if err := b.Append(types.StringValue("x")); err == nil {
		t.Error("appending VARCHAR to INTEGER builder should fail")
	}
	if err := b.Append(types.NullValue(types.Varchar)); err != nil {
		t.Error("NULL of any type should append")
	}
}

func TestColumnsFromRows(t *testing.T) {
	cols, err := ColumnsFromRows(intRows(1, 2, 3), schema2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || cols[0].Len() != 3 {
		t.Fatalf("cols = %v", cols)
	}
	if cols[0].Get(1).I != 2 {
		t.Error("column value mismatch")
	}
	if _, err := ColumnsFromRows([]types.Row{{types.IntValue(1)}}, schema2); err == nil {
		t.Error("short row should fail")
	}
}

func col(t *testing.T, typ types.Type, vals ...types.Value) Column {
	t.Helper()
	b := NewBuilder(typ)
	for _, v := range vals {
		if err := b.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func roundTrip(t *testing.T, c Column, enc encoding) Column {
	t.Helper()
	data, err := encodeColumn(c, enc)
	if err != nil {
		t.Fatalf("encode %v: %v", enc, err)
	}
	got, err := decodeColumn(data, -1)
	if err != nil {
		t.Fatalf("decode %v: %v", enc, err)
	}
	if got.Len() != c.Len() || got.Type() != c.Type() {
		t.Fatalf("decoded shape mismatch: %d/%v vs %d/%v", got.Len(), got.Type(), c.Len(), c.Type())
	}
	for i := 0; i < c.Len(); i++ {
		if c.IsNull(i) != got.IsNull(i) {
			t.Fatalf("null mismatch row %d", i)
		}
		if !c.IsNull(i) && !types.Equal(c.Get(i), got.Get(i)) {
			t.Fatalf("value mismatch row %d: %v vs %v", i, c.Get(i), got.Get(i))
		}
	}
	return got
}

func TestEncodingsRoundTrip(t *testing.T) {
	ints := col(t, types.Int64, types.IntValue(1), types.IntValue(1), types.IntValue(5), types.NullValue(types.Int64), types.IntValue(-9))
	for _, e := range []encoding{encPlain, encRLE, encDeltaVarint} {
		roundTrip(t, ints, e)
	}
	floats := col(t, types.Float64, types.FloatValue(1.5), types.FloatValue(math.Pi), types.NullValue(types.Float64))
	for _, e := range []encoding{encPlain, encRLE} {
		roundTrip(t, floats, e)
	}
	strs := col(t, types.Varchar, types.StringValue("aa"), types.StringValue("bb"), types.StringValue("aa"), types.NullValue(types.Varchar))
	for _, e := range []encoding{encPlain, encRLE, encDict} {
		roundTrip(t, strs, e)
	}
	bools := col(t, types.Bool, types.BoolValue(true), types.BoolValue(true), types.BoolValue(false))
	for _, e := range []encoding{encPlain, encRLE} {
		roundTrip(t, bools, e)
	}
}

func TestEncodingQuickInt(t *testing.T) {
	f := func(vals []int64) bool {
		b := NewBuilder(types.Int64)
		for _, v := range vals {
			if err := b.Append(types.IntValue(v)); err != nil {
				return false
			}
		}
		c := b.Build()
		for _, e := range []encoding{encPlain, encRLE, encDeltaVarint} {
			data, err := encodeColumn(c, e)
			if err != nil {
				return false
			}
			got, err := decodeColumn(data, -1)
			if err != nil || got.Len() != len(vals) {
				return false
			}
			for i, v := range vals {
				if got.Get(i).I != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestChooseEncoding(t *testing.T) {
	sortedInts := NewBuilder(types.Int64)
	for i := 0; i < 100; i++ {
		_ = sortedInts.Append(types.IntValue(int64(i)))
	}
	if got := chooseEncoding(sortedInts.Build()); got != encDeltaVarint {
		t.Errorf("sorted ints -> %v, want DELTA", got)
	}
	runs := NewBuilder(types.Int64)
	for i := 0; i < 100; i++ {
		_ = runs.Append(types.IntValue(int64(i / 50)))
	}
	if got := chooseEncoding(runs.Build()); got != encRLE {
		t.Errorf("runs -> %v, want RLE", got)
	}
	lowCard := NewBuilder(types.Varchar)
	for i := 0; i < 100; i++ {
		_ = lowCard.Append(types.StringValue([]string{"a", "b"}[i%2]))
	}
	if got := chooseEncoding(lowCard.Build()); got != encDict {
		t.Errorf("low-cardinality strings -> %v, want DICT", got)
	}
}

func TestDecodeCorruptData(t *testing.T) {
	c := col(t, types.Int64, types.IntValue(1), types.IntValue(2))
	data, err := encodeColumn(c, encPlain)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeColumn(data[:len(data)-3], -1); err == nil {
		t.Error("truncated data should fail to decode")
	}
	if _, err := decodeColumn([]byte{}, -1); err == nil {
		t.Error("empty data should fail to decode")
	}
}

func TestMVCCVisibility(t *testing.T) {
	s := NewStore(schema2, []int{0})
	if err := s.AppendROS(intRows(1, 2), 5); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendROS(intRows(3), 8); err != nil {
		t.Fatal(err)
	}
	count := func(epoch uint64) int {
		return s.RowCount(Visibility{Epoch: epoch})
	}
	if count(4) != 0 || count(5) != 2 || count(8) != 3 {
		t.Errorf("epoch visibility wrong: %d %d %d", count(4), count(5), count(8))
	}

	// Delete id=1 at epoch 10: epoch 9 still sees it, epoch 10 does not.
	n := deleteWhere(t, s, Visibility{Epoch: 9}, 10, func(r types.Row) bool { return r[0].I == 1 })
	if n != 1 {
		t.Fatalf("DeleteWhere = %d", n)
	}
	if count(9) != 3 || count(10) != 2 {
		t.Errorf("delete visibility wrong: epoch9=%d epoch10=%d", count(9), count(10))
	}
}

func TestProvisionalTagVisibility(t *testing.T) {
	s := NewStore(schema2, []int{0})
	tag := ProvisionalBase + 77
	if err := s.AppendROS(intRows(1), tag); err != nil {
		t.Fatal(err)
	}
	if s.RowCount(Visibility{Epoch: 100}) != 0 {
		t.Error("provisional rows must be invisible to snapshot readers")
	}
	if s.RowCount(Visibility{Epoch: 100, Tag: tag}) != 1 {
		t.Error("provisional rows must be visible to their own transaction")
	}
	other := ProvisionalBase + 78
	if s.RowCount(Visibility{Epoch: 100, Tag: other}) != 0 {
		t.Error("provisional rows must be invisible to other transactions")
	}
	s.RebaseInserts(tag, 7)
	if s.RowCount(Visibility{Epoch: 7}) != 1 || s.RowCount(Visibility{Epoch: 6}) != 0 {
		t.Error("rebase should publish at the commit epoch")
	}
}

func TestDropInserts(t *testing.T) {
	s := NewStore(schema2, []int{0})
	tag := ProvisionalBase + 1
	_ = s.AppendROS(intRows(1, 2), tag)
	appendRows(t, s, intRows(3), tag)
	appendRows(t, s, intRows(4), 1)
	s.DropInserts(tag)
	if s.RowCount(Visibility{Epoch: 100, Tag: tag}) != 1 {
		t.Error("DropInserts should remove the provisional rows and keep the committed one")
	}
	if s.ContainerCount() != 1 {
		t.Errorf("%d containers after the abort, want the committed one alone", s.ContainerCount())
	}
}

func TestProvisionalDeletes(t *testing.T) {
	s := NewStore(schema2, []int{0})
	_ = s.AppendROS(intRows(1, 2, 3), 2)
	tag := ProvisionalBase + 9
	n := deleteWhere(t, s, Visibility{Epoch: 5, Tag: tag}, tag, func(r types.Row) bool { return r[0].I <= 2 })
	if n != 2 {
		t.Fatalf("DeleteWhere = %d", n)
	}
	if s.RowCount(Visibility{Epoch: 5}) != 3 {
		t.Error("uncommitted deletes must be invisible to others")
	}
	if s.RowCount(Visibility{Epoch: 5, Tag: tag}) != 1 {
		t.Error("own transaction must see its deletes")
	}
	s.ClearDeletes(tag)
	if s.RowCount(Visibility{Epoch: 5}) != 3 {
		t.Error("ClearDeletes should restore rows")
	}
	n = deleteWhere(t, s, Visibility{Epoch: 5, Tag: tag}, tag, func(r types.Row) bool { return r[0].I == 1 })
	if n != 1 {
		t.Fatal("re-delete failed")
	}
	s.RebaseDeletes(tag, 6)
	if s.RowCount(Visibility{Epoch: 6}) != 2 || s.RowCount(Visibility{Epoch: 5}) != 3 {
		t.Error("RebaseDeletes should publish delete at commit epoch")
	}
}

func TestScanHashRange(t *testing.T) {
	s := NewStore(schema2, []int{0})
	rows := intRows(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	if err := s.AppendROS(rows, 2); err != nil {
		t.Fatal(err)
	}
	segs := vhash.Segments(2)
	var got0, got1 []int64
	s.Scan(Visibility{Epoch: 2}, segs[0], func(r types.Row) bool {
		got0 = append(got0, r[0].I)
		return true
	})
	s.Scan(Visibility{Epoch: 2}, segs[1], func(r types.Row) bool {
		got1 = append(got1, r[0].I)
		return true
	})
	if len(got0)+len(got1) != len(rows) {
		t.Errorf("range scan split lost rows: %d + %d != %d", len(got0), len(got1), len(rows))
	}
	for _, id := range got0 {
		h := vhash.Hash(types.IntValue(id))
		if !segs[0].Contains(h) {
			t.Errorf("row %d leaked into wrong segment", id)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	s := NewStore(schema2, []int{0})
	_ = s.AppendROS(intRows(1, 2, 3, 4, 5), 1)
	n := 0
	s.Scan(Visibility{Epoch: 1}, fullRing(), func(types.Row) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("scan did not stop early: %d", n)
	}
}

func TestDeleteWinsOnce(t *testing.T) {
	s := NewStore(schema2, []int{0})
	_ = s.AppendROS(intRows(1), 1)
	tagA, tagB := ProvisionalBase+1, ProvisionalBase+2
	if n := deleteWhere(t, s, Visibility{Epoch: 1, Tag: tagA}, tagA, func(types.Row) bool { return true }); n != 1 {
		t.Fatal("first delete should win")
	}
	if n := deleteWhere(t, s, Visibility{Epoch: 1, Tag: tagB}, tagB, func(types.Row) bool { return true }); n != 0 {
		t.Error("second (concurrent) delete must not double-delete")
	}
}

// TestMarkDeletedNamesRowsByPosition: a batch marks the rows it selects in the
// container the scan cut it from, and a batch no scan produced marks nothing.
func TestMarkDeletedNamesRowsByPosition(t *testing.T) {
	s := NewStore(schema2, []int{0})
	_ = s.AppendROS(intRows(1, 2, 3), 1)
	appendRows(t, s, intRows(4, 5, 6), 1)
	var batches []*Batch
	_ = s.ScanBatches(Visibility{Epoch: 1}, fullRing(), func(b *Batch) bool {
		b.Sel = b.Sel[1:2] // ids 2 and 5
		batches = append(batches, b)
		return true
	})
	for _, b := range batches {
		if n, err := s.MarkDeleted(b, 2); n != 1 || err != nil {
			t.Fatalf("MarkDeleted = %d, %v; want 1 row", n, err)
		}
	}
	var ids []int64
	for _, r := range collectScan(s, Visibility{Epoch: 2}, fullRing()) {
		ids = append(ids, r[0].I)
	}
	if want := []int64{1, 3, 4, 6}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("after deleting ids 2 and 5: %v, want %v", ids, want)
	}
	if n, err := s.MarkDeleted(&Batch{Cols: batches[0].Cols, Sel: []int32{0}}, 3); n != 0 || err == nil {
		t.Fatalf("MarkDeleted on a batch no scan produced = %d, %v; want an error", n, err)
	}
	if got := s.RowCount(Visibility{Epoch: 3}); got != 4 {
		t.Fatalf("%d rows visible after the refused mark, want 4", got)
	}
}

func TestStoreValidateAndStats(t *testing.T) {
	s := NewStore(schema2, []int{0})
	_ = s.AppendROS(intRows(1, 2), 1)
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
	if s.DataBytes() <= 0 || s.TotalRows() != 2 || s.ContainerCount() != 1 {
		t.Errorf("stats wrong: bytes=%d rows=%d containers=%d", s.DataBytes(), s.TotalRows(), s.ContainerCount())
	}
	want := []int{0}
	if !reflect.DeepEqual(s.SegIdx(), want) {
		t.Errorf("SegIdx = %v", s.SegIdx())
	}
}
