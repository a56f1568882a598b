package catalog

import (
	"testing"

	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

func def(name string, segmented bool, segCols ...string) TableDef {
	return TableDef{
		Name: name,
		Schema: types.NewSchema(
			types.Column{Name: "id", T: types.Int64},
			types.Column{Name: "v", T: types.Float64},
		),
		Segmented: segmented,
		SegCols:   segCols,
	}
}

func TestCreateLookupDrop(t *testing.T) {
	c := New(4)
	tbl, err := c.CreateTable(def("t", true, "id"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumNodes() != 4 || len(tbl.SegIdx) != 1 || tbl.SegIdx[0] != 0 {
		t.Errorf("table = %+v", tbl)
	}
	if _, ok := c.Table("T"); !ok {
		t.Error("lookup should be case-insensitive")
	}
	if _, err := c.CreateTable(def("t", true, "id"), 1); err == nil {
		t.Error("duplicate create should fail")
	}
	if err := c.DropTable("t", false); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("t", false); err == nil {
		t.Error("dropping missing table should fail")
	}
	if err := c.DropTable("t", true); err != nil {
		t.Error("IF EXISTS drop should not fail")
	}
}

func TestBadSegmentationColumn(t *testing.T) {
	c := New(2)
	if _, err := c.CreateTable(def("t", true, "nope"), 1); err == nil {
		t.Error("unknown segmentation column should fail")
	}
}

func TestKSafetyValidation(t *testing.T) {
	c := New(2)
	d := def("t", true, "id")
	d.KSafety = 2
	if _, err := c.CreateTable(d, 1); err == nil {
		t.Error("k-safety >= nodes should fail")
	}
	d.KSafety = 1
	tbl, err := c.CreateTable(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Buddies) != 1 || len(tbl.Buddies[0]) != 2 {
		t.Errorf("buddies = %v", tbl.Buddies)
	}
}

func TestSegmentRanges(t *testing.T) {
	c := New(4)
	seg, _ := c.CreateTable(def("s", true, "id"), 1)
	ranges := seg.SegmentRanges()
	if ranges[0].Lo != 0 || ranges[3].Hi != vhash.RingSize {
		t.Errorf("segment ranges = %v", ranges)
	}
	unseg, _ := c.CreateTable(def("u", false), 1)
	for _, r := range unseg.SegmentRanges() {
		if r.Lo != 0 || r.Hi != vhash.RingSize {
			t.Error("unsegmented tables should report the full ring everywhere")
		}
	}
	if unseg.HomeNode(12345) != 0 {
		t.Error("unsegmented home node should be 0")
	}
}

func TestRenameAndSwap(t *testing.T) {
	c := New(2)
	_, _ = c.CreateTable(def("a", true, "id"), 1)
	if err := c.RenameTable("a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Table("a"); ok {
		t.Error("old name should be gone")
	}
	tbl, ok := c.Table("b")
	if !ok || tbl.Def.Name != "b" {
		t.Errorf("renamed table = %v", tbl)
	}
	if err := c.RenameTable("missing", "x"); err == nil {
		t.Error("renaming missing table should fail")
	}
	_, _ = c.CreateTable(def("c", true, "id"), 1)
	if err := c.RenameTable("b", "c"); err == nil {
		t.Error("renaming over existing should fail")
	}
	// SwapLayout installs a rebalanced layout copy-on-write: a later lookup
	// sees it, a reader holding the old *Table keeps the old stores.
	lay := NewLayout(tbl.Def, tbl.SegIdx, []int{1, 0})
	if _, err := c.SwapLayout("b", lay); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Table("b"); got.Layout != lay || got.Stores[0] == tbl.Stores[0] {
		t.Error("swap should install the new layout under the table's name")
	}
	if tbl.Ring[0] != 0 || tbl.Stores[0] == lay.Stores[0] {
		t.Error("swap must leave the old *Table's layout as it was")
	}
	if _, err := c.SwapLayout("missing", lay); err == nil {
		t.Error("swapping a missing table's layout should fail")
	}
}

func TestViews(t *testing.T) {
	c := New(2)
	if err := c.CreateView("v", "SELECT 1"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateView("v", "SELECT 2"); err == nil {
		t.Error("duplicate view should fail")
	}
	_, _ = c.CreateTable(def("t", true, "id"), 1)
	if err := c.CreateView("t", "SELECT 1"); err == nil {
		t.Error("view over table name should fail")
	}
	if _, err := c.CreateTable(def("v", true, "id"), 1); err == nil {
		t.Error("table over view name should fail")
	}
	v, ok := c.View("V")
	if !ok || v.SelectSQL != "SELECT 1" {
		t.Errorf("view = %v", v)
	}
	if err := c.DropView("v", false); err != nil {
		t.Fatal(err)
	}
	if err := c.DropView("v", false); err == nil {
		t.Error("dropping missing view should fail")
	}
	if err := c.DropView("v", true); err != nil {
		t.Error("IF EXISTS drop view should not fail")
	}
}

func TestListingsSorted(t *testing.T) {
	c := New(2)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if _, err := c.CreateTable(def(n, true, "id"), 1); err != nil {
			t.Fatal(err)
		}
	}
	tables := c.Tables()
	if len(tables) != 3 || tables[0].Def.Name != "alpha" || tables[2].Def.Name != "zeta" {
		names := make([]string, len(tables))
		for i, tb := range tables {
			names[i] = tb.Def.Name
		}
		t.Errorf("tables = %v", names)
	}
}

func TestRowHashRouting(t *testing.T) {
	c := New(4)
	tbl, _ := c.CreateTable(def("t", true, "id"), 1)
	row := types.Row{types.IntValue(42), types.FloatValue(1)}
	h := tbl.RowHash(row)
	if h != vhash.Hash(types.IntValue(42)) {
		t.Error("RowHash should hash segmentation columns only")
	}
	home := tbl.HomeNode(h)
	if !tbl.SegmentRanges()[home].Contains(h) {
		t.Error("home node must own the row's hash")
	}
}
