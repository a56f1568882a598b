package rebalance

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"vsfabric/internal/catalog"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

// TestMoveTableCopiesEachRowOncePerSegment pins what a move allocates per
// row it places: a K=1 table of 1 INTEGER + 10 FLOAT columns, written in
// three epochs through the layout's own placement and with a tenth of its
// rows deleted, moved from 3 nodes to 4. Each new segment's share is cut out
// of the old containers by one copy, and its containers are built once, for
// its two replicas to attach; the row numbers, hashes and delete marks
// gathered beside it are the rest.
func TestMoveTableCopiesEachRowOncePerSegment(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector changes what allocates")
	}
	const (
		// Measured 759.3 B/row when the move copied every row into one
		// export and then once into each replica, 151.1 after, 142.9 once a
		// group's delete marks were copied straight into its vector, and
		// 142.5 once a segment's containers (zone maps, hash span) were
		// built once for both replicas; the bound leaves 10 % over the
		// latter.
		maxAllocBytesPerRow = 157
		perEpoch            = 12000
	)
	schema := types.NewSchema(types.Column{Name: "id", T: types.Int64})
	for j := 0; j < 10; j++ {
		schema.Cols = append(schema.Cols, types.Column{Name: fmt.Sprintf("c%d", j), T: types.Float64})
	}
	cat := catalog.New(3)
	tbl, err := cat.CreateTable(catalog.TableDef{Name: "t", Schema: schema, SegCols: []string{"id"}, Segmented: true, KSafety: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for e := uint64(1); e <= 3; e++ {
		ids := make([]int64, perEpoch)
		for i := range ids {
			ids[i] = int64(e)*perEpoch + int64(i)
		}
		cols := []storage.Column{&storage.Int64Column{Vals: ids}}
		for range 10 {
			vals := make([]float64, perEpoch)
			for i := range vals {
				vals[i] = rng.NormFloat64()
			}
			cols = append(cols, &storage.Float64Column{Vals: vals})
		}
		block := []*storage.Batch{{Cols: cols, Sel: storage.IdentitySel(perEpoch)}}
		err := tbl.Place(block, storage.HashBatches(block, tbl.SegIdx), nil, func(st *storage.Store, _ int, cs []*storage.ROSContainer, _ []uint64) error {
			st.Attach(cs, e, nil)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	deleteEverywhere(t, tbl, 4, func(r types.Row) bool { return r[0].I%10 == 0 })

	allocs := make([]float64, 3)
	for i := range allocs {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		lay, res, err := MoveTable(tbl, []int{0, 1, 2, 3}, nil)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows != 3*perEpoch || countAt(lay.Stores, 4) != 3*perEpoch*9/10 {
			t.Fatalf("moved %d rows, %d live; want %d, %d", res.Rows, countAt(lay.Stores, 4), 3*perEpoch, 3*perEpoch*9/10)
		}
		allocs[i] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(res.Rows)
	}
	t.Logf("allocated %.1f B/row (smallest of %v)", slices.Min(allocs), allocs)
	if got := slices.Min(allocs); got > maxAllocBytesPerRow {
		t.Errorf("a K=1 3→4-node move allocates %.1f bytes a row, bound %d", got, maxAllocBytesPerRow)
	}
}
