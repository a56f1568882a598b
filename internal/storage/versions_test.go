package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"vsfabric/internal/types"
)

// rowVersion, exportRowVersions and containersFromRowVersions are commit
// 761dcd3's row-based version movement (RowVersion, Store.ExportVersions,
// containersFromVersions), kept as the reference that rebalance's and
// recovery's container moves are tested against (move_test.go, through
// export_test.go).
type rowVersion struct {
	Row   types.Row
	Hash  uint32
	Start uint64
	Del   uint64
}

func exportRowVersions(s *Store) []rowVersion {
	var out []rowVersion
	for _, c := range s.snapshot() {
		out = append(out, rowVersionsOf(c)...)
	}
	return out
}

// rowVersionsOf is one container's committed row versions: none for a
// provisional container, and a provisional delete mark reads as live.
func rowVersionsOf(c *ROSContainer) []rowVersion {
	c.mu.RLock()
	start := c.start
	var del []uint64
	if c.del != nil {
		del = append(make([]uint64, 0, len(c.del)), c.del...)
	}
	c.mu.RUnlock()
	if start >= ProvisionalBase {
		return nil
	}
	var out []rowVersion
	for i := 0; i < c.RowCount; i++ {
		d := uint64(0)
		if del != nil && del[i] < ProvisionalBase {
			d = del[i]
		}
		out = append(out, rowVersion{Row: c.Row(i), Hash: c.Hashes[i], Start: start, Del: d})
	}
	return out
}

func containersFromRowVersions(schema types.Schema, versions []rowVersion) ([]*ROSContainer, error) {
	groups := make(map[uint64][]int)
	for i, v := range versions {
		groups[v.Start] = append(groups[v.Start], i)
	}
	order := make([]uint64, 0, len(groups))
	for e := range groups {
		order = append(order, e)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make([]*ROSContainer, 0, len(order))
	for _, e := range order {
		idxs := groups[e]
		rows := make([]types.Row, len(idxs))
		hashes := make([]uint32, len(idxs))
		var del []uint64
		for j, i := range idxs {
			rows[j] = versions[i].Row
			hashes[j] = versions[i].Hash
			if versions[i].Del != 0 {
				if del == nil {
					del = make([]uint64, len(idxs))
				}
				del[j] = versions[i].Del
			}
		}
		cols, err := ColumnsFromRows(rows, schema)
		if err != nil {
			return nil, err
		}
		c, err := newContainer(cols, len(rows), schema, hashes, e, del)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// sameRowVersions checks two stores' row-reference exports are the same
// versions.
func sameRowVersions(t *testing.T, what string, got, want []rowVersion) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d versions, want %d", what, len(got), len(want))
	}
	for i, w := range want {
		sameRows(t, what, []types.Row{got[i].Row}, []types.Row{w.Row})
		if g := got[i]; g.Hash != w.Hash || g.Start != w.Start || g.Del != w.Del {
			t.Fatalf("%s version %d: hash %d start %d del %d, want %+v", what, i, g.Hash, g.Start, g.Del, w)
		}
	}
}

// sameContainers checks two container sequences are the same containers: count,
// order, stored column forms and contents, zone maps, hashes, start epochs and
// delete vectors.
func sameContainers(t *testing.T, what string, got, want []*ROSContainer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d containers, want %d", what, len(got), len(want))
	}
	for k, w := range want {
		g := got[k]
		if g.StartEpoch() != w.StartEpoch() || g.RowCount != w.RowCount {
			t.Fatalf("%s container %d: %d rows at epoch %d, want %d at %d", what, k, g.RowCount, g.StartEpoch(), w.RowCount, w.StartEpoch())
		}
		for j := range w.Cols {
			if reflect.TypeOf(g.Cols[j]) != reflect.TypeOf(w.Cols[j]) {
				t.Fatalf("%s container %d column %d stored as %T, want %T", what, k, j, g.Cols[j], w.Cols[j])
			}
			if gn, wn := nullsOf(g.Cols[j]) != nil, nullsOf(w.Cols[j]) != nil; gn != wn {
				t.Fatalf("%s container %d column %d: carries a NULL vector = %v, want %v", what, k, j, gn, wn)
			}
		}
		all := IdentitySel(w.RowCount)
		sameRows(t, what, Materialize([]*Batch{{Cols: g.Cols, Sel: all}}), Materialize([]*Batch{{Cols: w.Cols, Sel: all}}))
		// %v spells NaN bounds alike, which == would not.
		if gs, ws := fmt.Sprintf("%+v", g.Stats()), fmt.Sprintf("%+v", w.Stats()); gs != ws {
			t.Fatalf("%s container %d zone maps %s, want %s", what, k, gs, ws)
		}
		if !reflect.DeepEqual(g.Hashes, w.Hashes) {
			t.Fatalf("%s container %d hashes differ", what, k)
		}
		if g.span != w.span {
			t.Fatalf("%s container %d hash span %v, want %v", what, k, g.span, w.span)
		}
		if !reflect.DeepEqual(g.del, w.del) {
			t.Fatalf("%s container %d delete vector %v, want %v", what, k, g.del, w.del)
		}
	}
}

// randomHistory fills a store with several epochs of ROS containers — NULLs,
// an RLE-able column, committed and provisional deletes, a provisional insert
// — the states recovery and rebalance meet.
func randomHistory(t *testing.T, rng *rand.Rand, s *Store) {
	t.Helper()
	epoch := uint64(1)
	for step := 0; step < 3+rng.Intn(6); step++ {
		epoch += uint64(rng.Intn(2)) // some steps share an epoch
		appendRows(t, s, writeRows(rng, 1+rng.Intn(150)), epoch)
		if rng.Intn(2) == 0 {
			epoch++
			deleteWhere(t, s, Visibility{Epoch: epoch}, epoch, func(types.Row) bool { return rng.Intn(5) == 0 })
		}
	}
	appendRows(t, s, writeRows(rng, 3), ProvisionalBase+1)
	deleteWhere(t, s, Visibility{Epoch: epoch}, ProvisionalBase+2, func(types.Row) bool { return rng.Intn(10) == 0 })
}
