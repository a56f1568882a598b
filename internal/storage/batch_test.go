package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

func batchSchema() types.Schema {
	return types.Schema{Cols: []types.Column{
		{Name: "id", T: types.Int64},
		{Name: "name", T: types.Varchar},
	}}
}

func batchRows(lo, hi int) []types.Row {
	var rows []types.Row
	for i := lo; i < hi; i++ {
		rows = append(rows, types.Row{
			types.IntValue(int64(i)),
			types.StringValue(fmt.Sprintf("r%d", i)),
		})
	}
	return rows
}

// collectScan gathers the row-at-a-time reference scan's output.
func collectScan(s *Store, vis Visibility, hr vhash.Range) []types.Row {
	var out []types.Row
	s.Scan(vis, hr, func(r types.Row) bool {
		out = append(out, r.Clone())
		return true
	})
	return out
}

// appendRows is the write entry for a test that holds rows: one container.
func appendRows(t testing.TB, s *Store, rows []types.Row, tag uint64) {
	t.Helper()
	if err := s.AppendROS(rows, tag); err != nil {
		t.Fatal(err)
	}
}

// deleteWhere is a DELETE as the engine runs one: scan under vis, narrow each
// batch to the rows match keeps, then hand the batches back to be marked with
// tag. It returns the number of rows marked.
func deleteWhere(t testing.TB, s *Store, vis Visibility, tag uint64, match func(types.Row) bool) int {
	t.Helper()
	var selected []*Batch
	err := s.ScanBatches(vis, fullRing(), func(b *Batch) bool {
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
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, b := range selected {
		marked, err := s.MarkDeleted(b, tag)
		if err != nil {
			t.Fatal(err)
		}
		n += marked
	}
	return n
}

// collectBatches materializes every batch, mirroring the vectorized path.
func collectBatches(t *testing.T, s *Store, vis Visibility, hr vhash.Range) []types.Row {
	t.Helper()
	var out []types.Row
	err := s.ScanBatches(vis, hr, func(b *Batch) bool {
		out = append(out, Materialize([]*Batch{b})...)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func rowsEqual(a, b []types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if types.Compare(a[i][j], b[i][j]) != 0 {
				return false
			}
		}
	}
	return true
}

// TestScanBatchesMatchesScan drives both scan paths through a sequence of
// MVCC states — ROS containers, deletes, provisional tags — and
// checks they agree row for row at every visibility and hash range.
func TestScanBatchesMatchesScan(t *testing.T) {
	schema := batchSchema()
	s := NewStore(schema, []int{0})
	if err := s.AppendROS(batchRows(0, 100), 2); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendROS(batchRows(100, 150), 4); err != nil {
		t.Fatal(err)
	}
	appendRows(t, s, batchRows(150, 170), 6)
	// Committed delete at epoch 5 hitting the older containers and (no-op)
	// the rows that aren't visible yet at epoch 5.
	deleteWhere(t, s, Visibility{Epoch: 5}, 5, func(r types.Row) bool { return r[0].I%7 == 0 })
	// A provisional transaction: inserts and deletes tagged but uncommitted.
	tag := uint64(ProvisionalBase + 1)
	appendRows(t, s, batchRows(170, 180), tag)
	deleteWhere(t, s, Visibility{Epoch: 6, Tag: tag}, tag, func(r types.Row) bool { return r[0].I%11 == 3 })

	segs := vhash.Segments(3)
	ranges := append([]vhash.Range{{Lo: 0, Hi: vhash.RingSize}}, segs...)
	for _, vis := range []Visibility{
		{Epoch: 1},             // before everything
		{Epoch: 2},             // first container only
		{Epoch: 4},             // both containers, delete not yet visible
		{Epoch: 5},             // delete visible
		{Epoch: 6},             // third container visible
		{Epoch: 6, Tag: tag},   // plus this transaction's provisional work
		{Epoch: 100},           // far future
		{Epoch: 100, Tag: tag}, // future + provisional
	} {
		for ri, hr := range ranges {
			want := collectScan(s, vis, hr)
			got := collectBatches(t, s, vis, hr)
			if !rowsEqual(got, want) {
				t.Fatalf("vis %+v range %d: batches returned %d rows, scan %d",
					vis, ri, len(got), len(want))
			}
			if n := s.CountVisible(vis, hr); n != len(want) {
				t.Fatalf("vis %+v range %d: CountVisible = %d, want %d", vis, ri, n, len(want))
			}
		}
	}
}

func TestScanBatchesEarlyStop(t *testing.T) {
	s := NewStore(batchSchema(), []int{0})
	for i := 0; i < 3; i++ {
		if err := s.AppendROS(batchRows(i*10, i*10+10), 1); err != nil {
			t.Fatal(err)
		}
	}
	calls := 0
	if err := s.ScanBatches(Visibility{Epoch: 1}, fullRing(), func(b *Batch) bool {
		calls++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("ScanBatches ignored early stop: %d calls", calls)
	}
}

func TestBatchMaterializeSubset(t *testing.T) {
	s := NewStore(batchSchema(), []int{0})
	if err := s.AppendROS(batchRows(0, 5), 1); err != nil {
		t.Fatal(err)
	}
	var got []types.Row
	_ = s.ScanBatches(Visibility{Epoch: 1}, fullRing(), func(b *Batch) bool {
		got = append(got, Materialize([]*Batch{b.Project([]int{1})})...)
		return true
	})
	if len(got) != 5 {
		t.Fatalf("got %d rows", len(got))
	}
	for i, r := range got {
		if len(r) != 1 || r[0].S != fmt.Sprintf("r%d", i) {
			t.Fatalf("row %d = %v, want single name column", i, r)
		}
	}
}

// TestRLEColumnEncodesAndDecodes pins the on-disk RLE encoding: a dense,
// run-heavy INTEGER vector is stored run-length encoded and decodes to the
// same dense vector.
func TestRLEColumnEncodesAndDecodes(t *testing.T) {
	vals := make([]int64, 200)
	for i := range vals {
		vals[i] = int64(i / 50)
	}
	col := &Int64Column{Vals: vals}
	if got := chooseEncoding(col); got != encRLE {
		t.Fatalf("run-heavy INTEGER vector chose encoding %v, want RLE", got)
	}
	data, err := encodeColumn(col, encRLE)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeColumn(data, -1)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := dec.(*Int64Column)
	if !ok || got.Nulls != nil || !slices.Equal(got.Vals, vals) {
		t.Fatalf("decoded %#v, want the dense vector %v", dec, vals)
	}
}

// TestScanBatchesRace runs vectorized scans concurrently with deletes,
// inserts, aborts and rebases. Run under -race (make check) this verifies
// the single-RLock selection build and immutable-column sharing are sound.
func TestScanBatchesRace(t *testing.T) {
	schema := batchSchema()
	s := NewStore(schema, []int{0})
	if err := s.AppendROS(batchRows(0, 2000), 1); err != nil {
		t.Fatal(err)
	}
	const (
		readers = 4
		rounds  = 50
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			segs := vhash.Segments(4)
			for {
				select {
				case <-stop:
					return
				default:
				}
				vis := Visibility{Epoch: uint64(1 + rng.Intn(200))}
				hr := segs[rng.Intn(len(segs))]
				err := s.ScanBatches(vis, hr, func(b *Batch) bool {
					// Materialize a subset to exercise column reads.
					Materialize([]*Batch{b.Project([]int{0})})
					return true
				})
				if err != nil {
					t.Error(err)
					return
				}
				s.CountVisible(vis, hr)
			}
		}(int64(r))
	}
	// Writer: interleave every mutation the DML paths use.
	for i := 0; i < rounds; i++ {
		epoch := uint64(2 + i)
		tag := ProvisionalBase + 100 + uint64(i)
		appendRows(t, s, batchRows(2000+i*10, 2000+i*10+10), tag)
		if i%2 == 0 {
			s.RebaseInserts(tag, epoch)
		} else {
			s.DropInserts(tag)
		}
		deleteWhere(t, s, Visibility{Epoch: epoch}, epoch, func(r types.Row) bool {
			return r[0].I%97 == int64(i%97)
		})
	}
	close(stop)
	wg.Wait()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// materializeSchema is materializeBatch's: every column form, each dense
// one with NULLs.
var materializeSchema = types.Schema{Cols: []types.Column{
	{Name: "i", T: types.Int64},
	{Name: "f", T: types.Float64},
	{Name: "s", T: types.Varchar},
	{Name: "b", T: types.Bool},
	{Name: "r", T: types.Int64},
	{Name: "d", T: types.Varchar},
}}

// materializeBatch is a batch of n rows of materializeSchema selected by sel
// (nil: the shared identity). Each dense column has NULLs at its own period
// with a non-zero value kept under every NULL slot; r holds runs of 11 equal
// values, and d is dictionary-coded with a NULL entry.
func materializeBatch(rng *rand.Rand, n int, sel []int32) *Batch {
	ic := &Int64Column{Vals: make([]int64, n), Nulls: make([]bool, n)}
	fc := &Float64Column{Vals: make([]float64, n), Nulls: make([]bool, n)}
	sc := &StringColumn{Vals: make([]string, n), Nulls: make([]bool, n)}
	bc := &BoolColumn{Vals: make([]bool, n), Nulls: make([]bool, n)}
	rc := &Int64Column{Vals: make([]int64, n)}
	dict := &StringColumn{Vals: []string{"x", "", "zz"}, Nulls: []bool{false, false, true}}
	dc := &DictColumn{Codes: make([]int32, n), Dict: dict}
	for i := 0; i < n; i++ {
		ic.Vals[i], fc.Vals[i] = rng.Int63()-rng.Int63(), rng.NormFloat64()+1
		sc.Vals[i], bc.Vals[i] = fmt.Sprintf("v%d", i), true
		ic.Nulls[i], fc.Nulls[i] = i%5 == 1, i%7 == 2
		sc.Nulls[i], bc.Nulls[i] = i%3 == 0, i%4 == 3
		rc.Vals[i] = int64(min((i+10)/11*11, n-1)*13 - 40)
		dc.Codes[i] = int32(i % 3)
	}
	if sel == nil {
		sel = IdentitySel(n)
	}
	return &Batch{Schema: materializeSchema, Cols: []Column{ic, fc, sc, bc, rc, dc}, Sel: sel}
}

// checkMaterialized fails unless got is what Materialize owes the batches:
// one row per selected row, in order, each with len == cap == its width, and
// every cell, compared as a whole types.Value, equal to its column's Get — or
// exactly types.NullValue of the column's type for a NULL slot, whatever the
// vector holds under it.
func checkMaterialized(t *testing.T, batches []*Batch, got []types.Row) {
	t.Helper()
	if len(got) != SelectedRows(batches) {
		t.Fatalf("Materialize returned %d rows, want %d", len(got), SelectedRows(batches))
	}
	k := 0
	for bi, b := range batches {
		for _, i := range b.Sel {
			row := got[k]
			if len(row) != len(b.Cols) || cap(row) != len(b.Cols) {
				t.Fatalf("row %d: len %d cap %d, want %d", k, len(row), cap(row), len(b.Cols))
			}
			for j, col := range b.Cols {
				want := col.Get(int(i))
				if col.IsNull(int(i)) {
					want = types.NullValue(col.Type())
				}
				if row[j] != want {
					t.Fatalf("batch %d row %d col %s: boxed %#v, want %#v", bi, i, b.Schema.Cols[j].Name, row[j], want)
				}
			}
			k++
		}
	}
}

// TestMaterializeMatchesGet is Materialize's reference (checkMaterialized):
// each column form, a non-identity selection that crosses boxBlock, and
// several batches in one call.
func TestMaterializeMatchesGet(t *testing.T) {
	const n = 3*boxBlock + 17
	rng := rand.New(rand.NewSource(7))
	var sparse []int32
	for i := int32(0); i < n; i++ {
		if rng.Intn(3) != 0 {
			sparse = append(sparse, i)
		}
	}
	batches := []*Batch{
		materializeBatch(rng, n, sparse), materializeBatch(rng, n, nil),
		materializeBatch(rng, n, []int32{0, n - 1}), materializeBatch(rng, n, []int32{}),
	}
	checkMaterialized(t, batches, Materialize(batches))
	if Materialize([]*Batch{materializeBatch(rng, n, []int32{})}) != nil {
		t.Fatal("Materialize of no selected rows is not nil")
	}
}

// TestMaterializeAcrossSlabs: a result several slabs long boxes as
// checkMaterialized requires, through batches whose lengths put every slab
// boundary inside a boxBlock and inside a batch: a 37-row first batch moves
// every later boundary off the block grid, then a sparse selection, the
// identity, and a run of the identity straddling the first boundary. No row
// reaches into the next: appending to a row on either side of a slab boundary
// leaves its neighbours as they were.
func TestMaterializeAcrossSlabs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	per := slabRows(len(materializeSchema.Cols))
	n := 2*per + boxBlock/2 + 5
	var sparse []int32
	for i := int32(0); i < int32(n); i++ {
		if rng.Intn(4) != 0 {
			sparse = append(sparse, i)
		}
	}
	batches := []*Batch{
		materializeBatch(rng, n, IdentitySel(n)[:37]),
		materializeBatch(rng, n, sparse),
		materializeBatch(rng, n, nil),
		materializeBatch(rng, n, IdentitySel(n)[per-9:per+boxBlock+9]),
	}
	total := SelectedRows(batches)
	if total < 3*per {
		t.Fatalf("%d rows fill fewer than 3 slabs of %d", total, per)
	}
	got := Materialize(batches)
	checkMaterialized(t, batches, got)
	before := make([]types.Row, len(got))
	for k, row := range got {
		before[k] = slices.Clone(row)
	}
	for edge := per; edge < total; edge += per {
		for _, k := range []int{edge - 1, edge} {
			if grown := append(got[k], types.IntValue(int64(k))); grown[len(grown)-1].I != int64(k) {
				t.Fatalf("row %d: appended value lost", k)
			}
			for _, nb := range []int{k - 1, k + 1} {
				if !slices.Equal(got[nb], before[nb]) {
					t.Fatalf("appending to row %d (slab edge %d) changed row %d", k, edge, nb)
				}
			}
		}
	}
}
