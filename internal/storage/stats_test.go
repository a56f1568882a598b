package storage

import (
	"math"
	"testing"

	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

func TestComputeColStats(t *testing.T) {
	schema := persistSchema()
	rows := persistRows() // has a NULL in every column except id-ish patterns
	cols, err := ColumnsFromRows(rows, schema)
	if err != nil {
		t.Fatal(err)
	}
	stats := ComputeStats(cols)
	if len(stats) != len(cols) {
		t.Fatalf("got %d stats for %d cols", len(stats), len(cols))
	}
	// id: {1, -7, NULL}
	if stats[0].NullCount != 1 || !stats[0].HasMinMax {
		t.Fatalf("id stats: %+v", stats[0])
	}
	if stats[0].Min.I != -7 || stats[0].Max.I != 1 {
		t.Fatalf("id min/max: %v..%v", stats[0].Min, stats[0].Max)
	}
	// score: {1.5, NULL, -0.25}
	if stats[1].NullCount != 1 || stats[1].Min.F != -0.25 || stats[1].Max.F != 1.5 {
		t.Fatalf("score stats: %+v", stats[1])
	}
	// name: {"a", "", NULL}
	if stats[2].NullCount != 1 || stats[2].Min.S != "" || stats[2].Max.S != "a" {
		t.Fatalf("name stats: %+v", stats[2])
	}
	// ok: {true, false, NULL}
	if stats[3].NullCount != 1 || stats[3].Min.B != false || stats[3].Max.B != true {
		t.Fatalf("ok stats: %+v", stats[3])
	}

	// A NaN anywhere in a FLOAT column, first included, widens its zone map
	// to [-Inf, +Inf]: the kernels call NaN equal to every literal.
	for _, vals := range [][]float64{{math.NaN(), 0.1, 0.9}, {0.1, math.NaN(), 0.9}} {
		st := ComputeColStats(&Float64Column{Vals: vals})
		if !st.HasMinMax || !math.IsInf(st.Min.F, -1) || !math.IsInf(st.Max.F, 1) {
			t.Fatalf("stats of %v: %+v, want [-Inf, +Inf]", vals, st)
		}
	}
}

func TestComputeColStatsAllNull(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "x", T: types.Int64})
	cols, err := ColumnsFromRows([]types.Row{
		{types.NullValue(types.Int64)}, {types.NullValue(types.Int64)},
	}, schema)
	if err != nil {
		t.Fatal(err)
	}
	st := ComputeColStats(cols[0])
	if st.NullCount != 2 || st.HasMinMax {
		t.Fatalf("all-null stats: %+v", st)
	}
}

func TestContainerStatsPersistRoundTrip(t *testing.T) {
	schema := persistSchema()
	c, err := rosContainer(persistRows(), schema, []int{0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := c.Stats()
	if len(want) != len(c.Cols) {
		t.Fatalf("container built without stats: %d/%d", len(want), len(c.Cols))
	}
	data, err := MarshalContainer(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalContainer(data)
	if err != nil {
		t.Fatal(err)
	}
	gs := got.Stats()
	if len(gs) != len(want) {
		t.Fatalf("stats lost in round trip: %d vs %d", len(gs), len(want))
	}
	for i := range want {
		if gs[i].NullCount != want[i].NullCount || gs[i].HasMinMax != want[i].HasMinMax {
			t.Fatalf("col %d: %+v vs %+v", i, gs[i], want[i])
		}
		if want[i].HasMinMax {
			if types.Compare(gs[i].Min, want[i].Min) != 0 || types.Compare(gs[i].Max, want[i].Max) != 0 {
				t.Fatalf("col %d min/max drift: %+v vs %+v", i, gs[i], want[i])
			}
		}
	}
}

func TestScanBatchesPruned(t *testing.T) {
	s := NewStore(schema2, []int{0})
	if err := s.AppendROS(intRows(1, 2, 3), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendROS(intRows(10, 20), 2); err != nil {
		t.Fatal(err)
	}
	vis := Visibility{Epoch: 2}
	full := vhash.Range{Lo: 0, Hi: vhash.RingSize}

	// Prune the low container (ids 1..3): only 10 and 20 survive.
	var pruned, scanned int
	var got []int64
	err := s.ScanBatchesPruned(vis, full, func(stats []ColStats, rowCount int) bool {
		if stats[0].Max.I <= 3 {
			pruned++
			return true
		}
		return false
	}, func(b *Batch) bool {
		scanned++
		for _, i := range b.Sel {
			got = append(got, b.Cols[0].Get(int(i)).I)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if pruned != 1 || scanned != 1 {
		t.Fatalf("pruned=%d scanned=%d, want 1/1", pruned, scanned)
	}
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("rows after pruning: %v", got)
	}
}

// TestEveryConstructorComputesZoneMaps: a write, a write carrying delete
// marks (rebalance's) and recovery's adoption of a replica's containers all
// produce containers with stats equal to what the columns say — there is no
// stat-less container to meet.
func TestEveryConstructorComputesZoneMaps(t *testing.T) {
	src := NewStore(schema2, []int{0})
	if err := src.AppendROS(intRows(1, 2, 3), 1); err != nil {
		t.Fatal(err)
	}
	appendRows(t, src, intRows(10, 20), 2)
	marked := NewStore(schema2, []int{0})
	for _, c := range src.Containers() {
		marks := make([]uint64, c.RowCount)
		marks[0] = 3
		if err := marked.AppendColumns(c.Cols, c.Hashes, c.StartEpoch(), marks); err != nil {
			t.Fatal(err)
		}
	}
	rebuilt := NewStore(schema2, []int{0})
	if err := rebuilt.ReplaceContents(src); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Store{"write": src, "marked": marked, "adopt": rebuilt} {
		conts := s.Containers()
		if len(conts) != 2 {
			t.Fatalf("%s: %d containers, want 2", name, len(conts))
		}
		for i, c := range conts {
			want := ComputeStats(c.Cols)
			if got := c.Stats(); len(got) != len(c.Cols) || got[0].Min.I != want[0].Min.I || got[0].Max.I != want[0].Max.I {
				t.Fatalf("%s container %d: stats %+v, columns say %+v", name, i, got, want)
			}
		}
	}
}
