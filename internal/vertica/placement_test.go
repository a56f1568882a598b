package vertica

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"vsfabric/internal/catalog"
	"vsfabric/internal/rebalance"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

// refReplica is one store of a replica set and the node hosting it.
type refReplica struct {
	st   *storage.Store
	node int
}

// refFailover is the buddy rule written out on its own: segment s of a
// segmented table lives on its primary at ring position s, then on buddy r
// at position (s+r+1) mod n; an unsegmented table keeps a full replica at
// every position, and a read of position s tries s itself, then every
// position in ring order.
func refFailover(tbl *catalog.Table, s int) []refReplica {
	n := len(tbl.Ring)
	out := []refReplica{{tbl.Stores[s], tbl.Ring[s]}}
	if tbl.Def.Segmented {
		for r := range tbl.Buddies {
			host := (s + r + 1) % n
			out = append(out, refReplica{tbl.Buddies[r][host], tbl.Ring[host]})
		}
		return out
	}
	for p := range tbl.Ring {
		if p != s {
			out = append(out, refReplica{tbl.Stores[p], tbl.Ring[p]})
		}
	}
	return out
}

// refPick is the first replica of refFailover(tbl, s) on a node ok admits.
func refPick(tbl *catalog.Table, s int, ok func(id int) bool) (refReplica, bool) {
	for _, rr := range refFailover(tbl, s) {
		if ok(rr.node) {
			return rr, true
		}
	}
	return refReplica{}, false
}

// refHosted lists the (store, segment) pairs ring position p hosts: its
// primary store, holding segment p, then buddy slot r, holding segment
// (p-r-1) mod n. An unsegmented position's one replica is named by p.
func refHosted(tbl *catalog.Table, p int) []struct {
	st  *storage.Store
	seg int
} {
	n := len(tbl.Ring)
	out := []struct {
		st  *storage.Store
		seg int
	}{{tbl.Stores[p], p}}
	for r := range tbl.Buddies {
		out = append(out, struct {
			st  *storage.Store
			seg int
		}{tbl.Buddies[r][p], ((p-r-1)%n + n) % n})
	}
	return out
}

// placementStores lists every store of tbl, primaries then buddies.
func placementStores(tbl *catalog.Table) []*storage.Store {
	out := slices.Clone(tbl.Stores)
	for _, reps := range tbl.Buddies {
		out = append(out, reps...)
	}
	return out
}

// TestReplicaPlacementEquivalence drives every consumer of replica placement
// over rings of 1–6 nodes, each K-safety the ring allows, segmented and
// unsegmented tables and every UP/DOWN/RECOVERING assignment of the ring's
// nodes, and checks each against the buddy rule written out above: the
// store a read fails over to (replicaFor), the store rebalance exports a
// segment from (rebalance.SourceFor), the write path's k-safety verdict
// (writableCheck), the stores a write routes each row to (Layout.Place),
// and the stores node recovery rebuilds and where from (recoverTable).
func TestReplicaPlacementEquivalence(t *testing.T) {
	c := testCluster(t, 6)
	s := sess(t, c, 0)
	schema := types.NewSchema(types.Column{Name: "id", T: types.Int64})
	// The ring is not in node-ID order, so a position mistaken for a node
	// ID (or the reverse) picks the wrong store.
	perm := []int{4, 2, 0, 5, 3, 1}
	states := []NodeState{NodeUp, NodeDown, NodeRecovering}
	cases := 0
	for n := 1; n <= len(perm); n++ {
		ring := perm[:n]
		for k := 0; k < n; k++ {
			for _, segmented := range []bool{true, false} {
				def := catalog.TableDef{Name: fmt.Sprintf("place_%d_%d_%t", n, k, segmented), Schema: schema, KSafety: k, Segmented: segmented}
				if segmented {
					def.SegCols = []string{"id"}
				}
				tbl, err := c.cat.CreateTableAt(def, 0, ring)
				if err != nil {
					t.Fatal(err)
				}
				checkWriteRouting(t, tbl)

				// Store i holds i+1 committed rows, so after a rebuild the
				// row count names the store it was copied from.
				stores := placementStores(tbl)
				marks := make(map[*storage.Store]int, len(stores))
				pristine := make([]*storage.Store, len(stores))
				for i, st := range stores {
					vals := make([]int64, i+1)
					if err := st.AppendColumns([]storage.Column{&storage.Int64Column{Vals: vals}}, make([]uint32, i+1), 1, nil); err != nil {
						t.Fatal(err)
					}
					pristine[i] = storage.NewStore(schema, nil)
					if err := pristine[i].ReplaceContents(st); err != nil {
						t.Fatal(err)
					}
					marks[st] = i + 1
				}
				for _, st := range stores {
					if got := marks[st]; st.TotalRows() != got {
						t.Fatalf("%s: store holds %d rows, want %d", def.Name, st.TotalRows(), got)
					}
				}

				masks := 1
				for range ring {
					masks *= len(states)
				}
				for m := 0; m < masks; m++ {
					for p, mm := 0, m; p < n; p, mm = p+1, mm/len(states) {
						c.node(ring[p]).setState(states[mm%len(states)])
					}
					name := fmt.Sprintf("%s mask %d", def.Name, m)
					checkReads(t, name, c, s, tbl)
					checkWritable(t, name, c, s, tbl)
					checkRecovery(t, name, c, tbl, marks, stores, pristine)
					cases++
				}
				for _, id := range ring {
					c.node(id).setState(NodeUp)
				}
			}
		}
	}
	if cases != 12030 {
		t.Fatalf("ran %d cases, want 12030", cases)
	}
}

// checkReads compares replicaFor and rebalance.SourceFor against the rule
// for every ring position: reads want an UP node, and so does rebalance
// when handed the same health predicate; a nil predicate trusts the
// primary.
func checkReads(t *testing.T, name string, c *Cluster, s *Session, tbl *catalog.Table) {
	t.Helper()
	for pos := range tbl.Ring {
		want, ok := refPick(tbl, pos, c.nodeUp)
		st, node, err := s.replicaFor(tbl, pos)
		if !ok {
			wantErr := fmt.Sprintf("vertica: segment %d of table %q unavailable (node down, k-safety exhausted)", pos, tbl.Def.Name)
			if err == nil || err.Error() != wantErr {
				t.Fatalf("%s: replicaFor(%d) err = %v, want %s", name, pos, err, wantErr)
			}
		} else if err != nil || st != want.st || node != want.node {
			t.Fatalf("%s: replicaFor(%d) = (%p, node %d, %v), want (%p, node %d)", name, pos, st, node, err, want.st, want.node)
		}

		src, err := rebalance.SourceFor(tbl, pos, c.nodeUp)
		if !ok {
			if err == nil {
				t.Fatalf("%s: SourceFor(%d) = %p, want no live replica", name, pos, src)
			}
		} else if err != nil || src != want.st {
			t.Fatalf("%s: SourceFor(%d) = (%p, %v), want %p", name, pos, src, err, want.st)
		}
		if src, err := rebalance.SourceFor(tbl, pos, nil); err != nil || src != tbl.Stores[pos] {
			t.Fatalf("%s: SourceFor(%d, nil) = (%p, %v), want the primary %p", name, pos, src, err, tbl.Stores[pos])
		}
	}
}

// checkWritable compares writableCheck's verdict with the rule: every
// segment needs a replica on a write-accepting (UP or RECOVERING) node, and
// the first that has none is named.
func checkWritable(t *testing.T, name string, c *Cluster, s *Session, tbl *catalog.Table) {
	t.Helper()
	var want error
	for seg := range tbl.Ring {
		if _, ok := refPick(tbl, seg, c.nodeAcceptsWrites); !ok {
			want = fmt.Errorf("%w: segment %d of table %q has no writable replica (k-safety exhausted)", ErrNodeDown, seg, tbl.Def.Name)
			break
		}
	}
	got := s.writableCheck(tbl)
	switch {
	case want == nil && got != nil:
		t.Fatalf("%s: writableCheck = %v, want nil", name, got)
	case want != nil && (got == nil || got.Error() != want.Error() || !errors.Is(got, ErrNodeDown)):
		t.Fatalf("%s: writableCheck = %v, want %v", name, got, want)
	}
}

// checkRecovery runs recoverTable for each ring node the mask leaves not UP
// (RecoverNode only ever recovers such a node) with every store it hosts
// stale, and compares what was rebuilt, and from which store, with the
// rule's walk: the primary, then each buddy slot, each from the first UP
// replica of its segment, stopping at the first segment with none.
func checkRecovery(t *testing.T, name string, c *Cluster, tbl *catalog.Table, marks map[*storage.Store]int, stores []*storage.Store, pristine []*storage.Store) {
	t.Helper()
	for pos, id := range tbl.Ring {
		if c.nodeUp(id) {
			continue
		}
		hosted := refHosted(tbl, pos)
		wantRows := make([]int, len(hosted))
		wantStale := make([]bool, len(hosted))
		wantErr := false
		for i, h := range hosted {
			h.st.MarkStale()
			wantRows[i], wantStale[i] = marks[h.st], true
		}
		for i, h := range hosted {
			src, ok := refPick(tbl, h.seg, c.nodeUp)
			if !ok {
				wantErr = true
				break
			}
			if src.st != h.st {
				wantRows[i], wantStale[i] = marks[src.st], false
			}
		}
		err := c.recoverTable(c.node(id), tbl.Def.Name)
		if (err != nil) != wantErr {
			t.Fatalf("%s: recoverTable(node %d) err = %v, want failure %t", name, id, err, wantErr)
		}
		for i, h := range hosted {
			if h.st.TotalRows() != wantRows[i] || h.st.Stale() != wantStale[i] {
				t.Fatalf("%s: node %d store %d (segment %d) holds %d rows, stale %t; want %d rows, stale %t",
					name, id, i, h.seg, h.st.TotalRows(), h.st.Stale(), wantRows[i], wantStale[i])
			}
		}
		for i, st := range stores {
			if st.TotalRows() != marks[st] {
				if err := st.ReplaceContents(pristine[i]); err != nil {
					t.Fatal(err)
				}
			}
			st.ClearStale()
		}
	}
}

// checkWriteRouting hands Layout.Place one row hashed into each segment and
// compares the visits, in order, with the rule: an unsegmented table's every
// store takes all rows; a segmented table's rows go, home segment by home
// segment, to the primary and then buddy 0…K-1.
func checkWriteRouting(t *testing.T, tbl *catalog.Table) {
	t.Helper()
	n := len(tbl.Ring)
	type visit struct {
		st     *storage.Store
		node   int
		hashes []uint32
	}
	hashes := make([]uint32, n)
	for i, r := range vhash.Segments(n) {
		hashes[n-1-i] = uint32(r.Lo + r.Width()/2) // segments out of row order
	}
	var want []visit
	if tbl.Def.Segmented {
		for home := 0; home < n; home++ {
			share := []uint32{hashes[n-1-home]}
			if vhash.SegmentOf(share[0], n) != home {
				t.Fatalf("hash %d is not in segment %d", share[0], home)
			}
			for _, rr := range refFailover(tbl, home) {
				want = append(want, visit{rr.st, rr.node, share})
			}
		}
	} else {
		for p := range tbl.Ring {
			want = append(want, visit{tbl.Stores[p], tbl.Ring[p], hashes})
		}
	}
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	var got []visit
	err := tbl.Place([]*storage.Batch{{Cols: []storage.Column{&storage.Int64Column{Vals: vals}}, Sel: storage.IdentitySel(n)}}, hashes, nil, func(st *storage.Store, nodeID int, cs []*storage.ROSContainer, _ []uint64) error {
		cols, hs := cs[0].Cols, cs[0].Hashes
		if cols[0].Len() != len(hs) {
			t.Fatalf("%s: visit got %d rows for %d hashes", tbl.Def.Name, cols[0].Len(), len(hs))
		}
		got = append(got, visit{st, nodeID, slices.Clone(hs)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: Place made %d visits, want %d", tbl.Def.Name, len(got), len(want))
	}
	for i := range want {
		if got[i].st != want[i].st || got[i].node != want[i].node || !slices.Equal(got[i].hashes, want[i].hashes) {
			t.Fatalf("%s: visit %d = (%p, node %d, %v), want (%p, node %d, %v)", tbl.Def.Name, i,
				got[i].st, got[i].node, got[i].hashes, want[i].st, want[i].node, want[i].hashes)
		}
	}
}
