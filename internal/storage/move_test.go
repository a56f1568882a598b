package storage_test

import (
	"fmt"
	"math/rand"
	"testing"

	"vsfabric/internal/catalog"
	"vsfabric/internal/rebalance"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

// oneNodeTable lays a segmented table out on a one-node ring, whose one
// primary holds every row, with k buddy replicas beside it.
func oneNodeTable(schema types.Schema, segCols []string, segIdx []int, k int) *catalog.Table {
	def := catalog.TableDef{Name: "t", Schema: schema, SegCols: segCols, Segmented: true, KSafety: k}
	return &catalog.Table{Def: def, SegIdx: segIdx, Layout: catalog.NewLayout(def, segIdx, []int{0})}
}

// TestColumnarVersionsMatchRowReference: recovery's adoption and rebalance's
// move build, from the stored vectors, the containers the row-boxing
// reference builds from the same store — recovery one for one, each new
// segment's replicas one per insert epoch of its rows.
func TestColumnarVersionsMatchRowReference(t *testing.T) {
	schema := storage.GatherSchema
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl := oneNodeTable(schema, []string{schema.Cols[1].Name, schema.Cols[3].Name}, []int{1, 3}, 1)
		src := tbl.Stores[0]
		storage.RandomHistory(t, rng, src)
		what := fmt.Sprintf("seed %d", seed)

		// Recovery adopts each committed container as it is.
		var want []*storage.ROSContainer
		for _, c := range src.Containers() {
			if ref := storage.RowVersionsOf(c); len(ref) > 0 {
				one, err := storage.ContainersFromRowVersions(schema, ref)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, one...)
			}
		}
		rebuilt := storage.NewStore(schema, []int{1, 3})
		// ReplaceContents drops what was there.
		if err := rebuilt.AppendROS(storage.WriteRows(rng, 2), 1); err != nil {
			t.Fatal(err)
		}
		if err := rebuilt.ReplaceContents(src); err != nil {
			t.Fatal(err)
		}
		storage.SameContainers(t, what+" replace", rebuilt.Containers(), want)

		// Rebalance's cut: each new segment's replicas take the versions
		// whose hash it owns.
		lay, _, err := rebalance.MoveTable(tbl, []int{0, 1, 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		refs := make([][]storage.RowVersion, len(lay.Ring))
		for _, v := range storage.ExportRowVersions(src) {
			seg := lay.HomeNode(v.Hash)
			refs[seg] = append(refs[seg], v)
		}
		for seg, ref := range refs {
			want, err := storage.ContainersFromRowVersions(schema, ref)
			if err != nil {
				t.Fatal(err)
			}
			for r, rep := range lay.Replicas(seg) {
				storage.SameContainers(t, fmt.Sprintf("%s segment %d replica %d", what, seg, r), rep.Store.Containers(), want)
			}
		}
	}
}

// TestImportContainerOrderDeterministic: containers of several insert epochs,
// held in any order, move as containers in ascending epoch order, every time.
// (Code that ranged over a map ordered them differently run to run, so two
// rebuilt replicas could disagree on container layout.)
func TestImportContainerOrderDeterministic(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "id", T: types.Int64}, types.Column{Name: "name", T: types.Varchar})
	tbl := oneNodeTable(schema, []string{"id"}, []int{0}, 0)
	for _, e := range []uint64{5, 2, 9, 3, 7} {
		var rows []types.Row
		for i := e * 10; i < e*10+3; i++ {
			rows = append(rows, types.Row{types.IntValue(int64(i)), types.StringValue(fmt.Sprintf("r%d", i))})
		}
		if err := tbl.Stores[0].AppendROS(rows, e); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 20; trial++ {
		lay, _, err := rebalance.MoveTable(tbl, []int{0}, nil)
		if err != nil {
			t.Fatal(err)
		}
		cs := lay.Stores[0].Containers()
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
