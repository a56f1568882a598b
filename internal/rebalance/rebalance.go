// Package rebalance implements epoch-consistent segment movement: given a
// table laid out on one ring and a target membership ring, it builds a
// complete replacement layout (primary stores plus buddy replicas) by taking
// the committed containers of a live replica of each old segment and placing
// their rows, one insert epoch at a time, under the new ring's hash ranges —
// through catalog.Layout.Place, the same function the write path routes rows
// with.
//
// Because the rows keep their full MVCC history (insert epoch, delete
// marks), the new layout answers AT EPOCH queries identically to the old one
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
	"cmp"
	"fmt"
	"slices"

	"vsfabric/internal/catalog"
	"vsfabric/internal/storage"
)

// Result summarizes one table move for progress reporting
// (v_monitor.rebalance_operations).
type Result struct {
	Table      string
	Rows       int // committed rows, live and deleted, placed in the new layout
	RowsMoved  int // rows whose owning node changed
	Containers int // ROS containers built across the new primary stores
}

// SourceFor picks the replica to take segment seg from: the first of
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
// table's EXCLUSIVE lock so the move reads exactly the committed state
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

	// Take each old segment's committed containers from a live replica,
	// segments ascending and containers in order, then group them by start
	// epoch, ascending, keeping that order inside an epoch. The order is
	// deterministic, so the order of each new store's share — and with it
	// the containers it is cut into — is too.
	type cont struct {
		c      *storage.ROSContainer
		start  uint64
		marked bool
	}
	var conts []cont
	for _, seg := range t.Segs(0) {
		src, err := SourceFor(t, seg, healthy)
		if err != nil {
			return nil, res, err
		}
		for _, c := range src.Containers() {
			if start := c.StartEpoch(); start < storage.ProvisionalBase {
				conts = append(conts, cont{c, start, c.Marked()})
				res.Rows += c.RowCount
			}
		}
	}
	slices.SortStableFunc(conts, func(a, b cont) int { return cmp.Compare(a.start, b.start) })

	// A row moved when it lands in the primary of a node whose old
	// primary did not hold it: primary maps each new primary to the segment
	// its node held, or -1.
	primary := make(map[*storage.Store]int, len(newRing))
	for p, id := range newRing {
		held := -1
		if q := t.PosOf(id); q >= 0 {
			held = t.Hosted(q)[0].Seg
		}
		primary[lay.Stores[p]] = held
	}
	for lo := 0; lo < len(conts); {
		hi := lo + 1
		for hi < len(conts) && conts[hi].start == conts[lo].start {
			hi++
		}
		// One epoch's containers are the blocks the new layout places, with
		// their hashes and, when any of them is marked, their committed
		// delete marks in block order, each copied once, straight into the
		// group's vector.
		group, start := conts[lo:hi], conts[lo].start
		lo = hi
		blocks := make([]*storage.Batch, len(group))
		for k, v := range group {
			blocks[k] = &storage.Batch{Cols: v.c.Cols, Sel: storage.IdentitySel(v.c.RowCount)}
		}
		n := storage.SelectedRows(blocks)
		hashes := group[0].c.Hashes
		if len(group) > 1 {
			hashes = make([]uint32, 0, n)
			for _, v := range group {
				hashes = append(hashes, v.c.Hashes...)
			}
		}
		var dels []uint64
		if slices.ContainsFunc(group, func(v cont) bool { return v.marked }) {
			dels = make([]uint64, 0, n)
			for _, v := range group {
				// dels was made zeroed, so an unmarked container's rows read live.
				at := len(dels)
				if _, dels = v.c.Committed(dels); len(dels) == at {
					dels = dels[:at+v.c.RowCount]
				}
			}
		}
		err := lay.Place(blocks, hashes, dels, func(st *storage.Store, _ int, cs []*storage.ROSContainer, dels []uint64) error {
			if held, ok := primary[st]; ok {
				for _, c := range cs {
					for _, h := range c.Hashes {
						if t.HomeNode(h) != held {
							res.RowsMoved++
						}
					}
				}
			}
			st.Attach(cs, start, dels)
			return nil
		})
		if err != nil {
			return nil, res, err
		}
	}
	for _, st := range lay.Stores {
		res.Containers += st.ContainerCount()
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
