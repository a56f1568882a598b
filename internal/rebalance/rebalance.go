// Package rebalance implements epoch-consistent segment movement: given a
// table laid out on one ring and a target membership ring, it builds a
// complete replacement layout (primary stores plus buddy replicas) by
// exporting every committed row version from a live replica of each old
// segment and re-importing it under the new ring's hash ranges.
//
// Because versions carry their full MVCC history (insert epoch, delete
// epoch), the new layout answers AT EPOCH queries identically to the old one
// at every epoch up to the move — the property that lets in-flight V2S jobs
// stay pinned to their planning epoch across an ALTER CLUSTER ("The Vertica
// Analytic Database: C-Store 7 Years Later" calls this rebalance without
// blocking load; the engine flips visibility atomically by swapping the
// catalog layout inside the rebalance transaction's commit).
//
// MoveTable is deterministic given the table's committed contents and the
// target ring, so replaying a rebalance record from the WAL reproduces the
// same placement the original run produced.
package rebalance

import (
	"fmt"
	"sort"

	"vsfabric/internal/catalog"
	"vsfabric/internal/storage"
	"vsfabric/internal/vhash"
)

// Result summarizes one table move for progress reporting
// (v_monitor.rebalance_operations).
type Result struct {
	Table      string
	Rows       int // committed row versions placed in the new layout
	RowsMoved  int // versions whose owning node changed
	Containers int // ROS containers built across the new primary stores
}

// Layout is a complete replacement layout for a table, ready to be installed
// with catalog.SwapLayout inside a commit hook.
type Layout struct {
	Ring    []int
	Stores  []*storage.Store
	Buddies [][]*storage.Store
}

// SourceFor picks the replica to export old segment seg from: the primary if
// its node is healthy, else the first healthy buddy. healthy == nil trusts
// the primary unconditionally (WAL replay, where every store is current).
func SourceFor(t *catalog.Table, seg int, healthy func(nodeID int) bool) (*storage.Store, error) {
	n := len(t.Ring)
	if healthy == nil || healthy(t.Ring[seg]) {
		return t.Stores[seg], nil
	}
	if !t.Def.Segmented {
		for p := range t.Ring {
			if healthy(t.Ring[p]) {
				return t.Stores[p], nil
			}
		}
		return nil, fmt.Errorf("rebalance: table %q has no live replica", t.Def.Name)
	}
	for r := range t.Buddies {
		host := (seg + r + 1) % n
		if healthy(t.Ring[host]) {
			return t.Buddies[r][host], nil
		}
	}
	return nil, fmt.Errorf("rebalance: segment %d of table %q has no live replica (k-safety exhausted)", seg, t.Def.Name)
}

func validateRing(ring []int) error {
	if len(ring) == 0 {
		return fmt.Errorf("rebalance: target ring is empty")
	}
	seen := make(map[int]bool, len(ring))
	for _, id := range ring {
		if id < 0 {
			return fmt.Errorf("rebalance: invalid node id %d in target ring", id)
		}
		if seen[id] {
			return fmt.Errorf("rebalance: duplicate node id %d in target ring", id)
		}
		seen[id] = true
	}
	return nil
}

// MoveTable builds a new layout for t on newRing. The caller must hold the
// table's EXCLUSIVE lock so the export sees exactly the committed state
// (EXCLUSIVE acquisition waits out every in-flight writer, and the lock rules
// guarantee no provisional rows remain in a table nobody holds a lock on).
// healthy reports whether a node's stores are current; nil trusts every
// primary. The old stores are left untouched, so readers holding the old
// *Table stay correct.
func MoveTable(t *catalog.Table, newRing []int, healthy func(nodeID int) bool) (*Layout, Result, error) {
	res := Result{Table: t.Def.Name}
	if err := validateRing(newRing); err != nil {
		return nil, res, err
	}
	if t.Def.KSafety >= len(newRing) {
		return nil, res, fmt.Errorf("rebalance: table %q k-safety %d needs more than %d nodes", t.Def.Name, t.Def.KSafety, len(newRing))
	}

	schema, segIdx := t.Def.Schema, t.SegIdx
	nNew := len(newRing)
	newStores := make([]*storage.Store, nNew)
	for p := range newStores {
		newStores[p] = storage.NewStore(schema, segIdx)
	}

	// Export each old segment from a live replica into one set of versions
	// (an unsegmented table's one replica holds them all). Export order
	// (segments ascending, containers then WOS within each) is deterministic,
	// so the order of each new store's share — and with it the imported
	// container layout — is too.
	var versions storage.Versions
	segs := len(t.Ring)
	if !t.Def.Segmented {
		segs = 1
	}
	for seg := 0; seg < segs; seg++ {
		src, err := SourceFor(t, seg, healthy)
		if err != nil {
			return nil, res, err
		}
		if err := src.ExportVersions(&versions); err != nil {
			return nil, res, err
		}
	}
	res.Rows = versions.Len()

	// Each new position's share, as positions in versions: the versions whose
	// hash it owns, or every version of an unsegmented table.
	buckets := make([][]int32, nNew)
	if t.Def.Segmented {
		for i, h := range versions.Hashes {
			home := vhash.SegmentOf(h, nNew)
			buckets[home] = append(buckets[home], int32(i))
			if t.Ring[vhash.SegmentOf(h, len(t.Ring))] != newRing[home] {
				res.RowsMoved++
			}
		}
	} else {
		all := storage.IdentitySel(versions.Len())
		for p, id := range newRing {
			buckets[p] = all
			if t.PosOf(id) < 0 {
				res.RowsMoved += versions.Len()
			}
		}
	}
	for p := range newStores {
		if err := newStores[p].ImportVersions(&versions, buckets[p]); err != nil {
			return nil, res, err
		}
		res.Containers += newStores[p].ContainerCount()
	}
	var newBuddies [][]*storage.Store
	if t.Def.Segmented && t.Def.KSafety > 0 {
		newBuddies = make([][]*storage.Store, t.Def.KSafety)
		for r := range newBuddies {
			newBuddies[r] = make([]*storage.Store, nNew)
			for p := range newBuddies[r] {
				st := storage.NewStore(schema, segIdx)
				// Buddies[r][p] holds the segment whose home position is
				// (p-r-1) mod n — same convention as the write path.
				seg := ((p-r-1)%nNew + nNew) % nNew
				if err := st.ImportVersions(&versions, buckets[seg]); err != nil {
					return nil, res, err
				}
				newBuddies[r][p] = st
			}
		}
	}
	lay := &Layout{Ring: append([]int(nil), newRing...), Stores: newStores, Buddies: newBuddies}
	return lay, res, nil
}

// RingWithout returns ring minus the given node ID, order preserved.
func RingWithout(ring []int, nodeID int) []int {
	out := make([]int, 0, len(ring))
	for _, id := range ring {
		if id != nodeID {
			out = append(out, id)
		}
	}
	return out
}

// RingsEqual reports whether two rings are identical (same IDs, same order).
func RingsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SortedCopy returns a sorted copy of ring — handy for stable test output.
func SortedCopy(ring []int) []int {
	out := append([]int(nil), ring...)
	sort.Ints(out)
	return out
}
