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

	"vsfabric/internal/catalog"
	"vsfabric/internal/storage"
)

// Result summarizes one table move for progress reporting
// (v_monitor.rebalance_operations).
type Result struct {
	Table      string
	Rows       int // committed row versions placed in the new layout
	RowsMoved  int // versions whose owning node changed
	Containers int // ROS containers built across the new primary stores
}

// SourceFor picks the replica to export segment seg from: the first of
// catalog.Layout.Replicas(seg) whose node is healthy. healthy == nil trusts
// the primary unconditionally (WAL replay, where every store is current).
func SourceFor(t *catalog.Table, seg int, healthy func(nodeID int) bool) (*storage.Store, error) {
	for _, rep := range t.Replicas(seg) {
		if healthy == nil || healthy(rep.Node) {
			return rep.Store, nil
		}
	}
	if len(t.Segs(0)) == 1 {
		return nil, fmt.Errorf("rebalance: table %q has no live replica", t.Def.Name)
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
func MoveTable(t *catalog.Table, newRing []int, healthy func(nodeID int) bool) (*catalog.Layout, Result, error) {
	res := Result{Table: t.Def.Name}
	if err := validateRing(newRing); err != nil {
		return nil, res, err
	}
	if t.Def.KSafety >= len(newRing) {
		return nil, res, fmt.Errorf("rebalance: table %q k-safety %d needs more than %d nodes", t.Def.Name, t.Def.KSafety, len(newRing))
	}
	lay := catalog.NewLayout(t.Def, t.SegIdx, newRing)

	// Export each old segment from a live replica into one set of versions.
	// Export order (segments ascending, containers in order within each) is
	// deterministic, so the order of each new store's share — and with it
	// the imported container layout — is too.
	var versions storage.Versions
	for _, seg := range t.Segs(0) {
		src, err := SourceFor(t, seg, healthy)
		if err != nil {
			return nil, res, err
		}
		if err := src.ExportVersions(&versions); err != nil {
			return nil, res, err
		}
	}
	res.Rows = versions.Len()

	// Each new segment's share, as positions in versions, imported into
	// each of its replicas.
	buckets := make([][]int32, len(lay.Segs(0)))
	for i, h := range versions.Hashes {
		seg := lay.HomeNode(h)
		buckets[seg] = append(buckets[seg], int32(i))
	}
	for seg, bucket := range buckets {
		for _, rep := range lay.Replicas(seg) {
			if err := rep.Store.ImportVersions(&versions, bucket); err != nil {
				return nil, res, err
			}
		}
	}
	// A version moved when it lands in the primary of a node whose old
	// primary did not hold it.
	for p, id := range newRing {
		held := -1
		if q := t.PosOf(id); q >= 0 {
			held = t.Hosted(q)[0].Seg
		}
		for _, i := range buckets[lay.Hosted(p)[0].Seg] {
			if t.HomeNode(versions.Hashes[i]) != held {
				res.RowsMoved++
			}
		}
		res.Containers += lay.Stores[p].ContainerCount()
	}
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
