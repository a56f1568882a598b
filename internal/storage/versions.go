package storage

import (
	"fmt"
	"slices"

	"vsfabric/internal/vhash"
)

// Versions is a set of row versions in column form: one append-only dense
// vector per schema column and, per row, its segmentation hash, the epoch (or
// provisional tag) it was inserted at and the epoch (or tag) it was deleted at
// (0 = live). It is what recovery and rebalance carry a store's history in:
// moving versions — rather than just live rows — between stores is what keeps
// AT EPOCH readers pinned anywhere in the table's history correct, since a
// scan at any past epoch sees exactly the same rows through the rebuilt store
// as it did through the original.
//
// Rows are only ever added at the end and never rewritten, so the vectors
// Columns returned earlier keep holding the rows they held. The zero value is
// empty and ready to use.
type Versions struct {
	cols   []*Builder
	Hashes []uint32
	Starts []uint64
	Dels   []uint64
}

// Len returns the number of row versions held.
func (v *Versions) Len() int { return len(v.Hashes) }

// Columns returns the column vectors as they stand.
func (v *Versions) Columns() []Column {
	cols := make([]Column, len(v.cols))
	for j, b := range v.cols {
		cols[j] = b.Build()
	}
	return cols
}

// add appends every row of cols, stamped with the insert epoch start. hashes
// and dels are indexed like the vectors; a nil dels leaves them live.
func (v *Versions) add(cols []Column, hashes []uint32, start uint64, dels []uint64) error {
	n := len(hashes)
	if n == 0 {
		return nil
	}
	if v.cols == nil {
		v.cols = make([]*Builder, len(cols))
		for j, c := range cols {
			v.cols[j] = NewBuilder(c.Type())
		}
	}
	if len(cols) != len(v.cols) {
		return fmt.Errorf("storage: %d column vectors added to %d-column versions", len(cols), len(v.cols))
	}
	for j, c := range cols {
		if err := v.cols[j].AppendColumn(c, IdentitySel(n)); err != nil {
			return err
		}
	}
	v.Hashes = append(v.Hashes, hashes...)
	for range n {
		v.Starts = append(v.Starts, start)
	}
	if dels != nil {
		v.Dels = append(v.Dels, dels...)
	} else {
		v.Dels = append(v.Dels, make([]uint64, n)...)
	}
	return nil
}

// committedDel is a delete mark as a committed view shows it: a provisional
// mark reads as live.
func committedDel(del uint64) uint64 {
	if del >= ProvisionalBase {
		return 0
	}
	return del
}

// containers builds the store's ROS containers of the rows sel lists: one
// per distinct insert epoch, in ascending epoch order, carrying their hashes
// and delete marks — an epoch's rows cut at the store's local segments as a
// write of as many rows would be (Store.cuts), ordered by local segment in
// the one gather. The grouping is a pure function of the versions, their
// order and the store's ring, so two stores of one ring importing the same
// versions (the original rebalance and its WAL replay, two buddy replicas
// rebuilt from one source) end up with identical container sequences.
func (s *Store) containers(v *Versions, sel []int32) ([]*ROSContainer, error) {
	if len(sel) == 0 {
		return nil, nil
	}
	groups := make(map[uint64][]int32)
	for _, i := range sel {
		groups[v.Starts[i]] = append(groups[v.Starts[i]], i)
	}
	order := make([]uint64, 0, len(groups))
	for e := range groups {
		order = append(order, e)
	}
	slices.Sort(order)
	cols := v.Columns()
	out := make([]*ROSContainer, 0, len(order))
	for _, e := range order {
		idx := groups[e]
		if s.cutsAt(len(idx)) {
			idx = s.localOrder(v.Hashes, idx)
		}
		dense, _, err := DenseColumns(s.schema, []*Batch{{Cols: cols, Sel: idx}})
		if err != nil {
			return nil, err
		}
		hashes := appendSel(nil, v.Hashes, idx)
		var del []uint64
		if slices.ContainsFunc(idx, func(i int32) bool { return v.Dels[i] != 0 }) {
			del = appendSel(nil, v.Dels, idx)
		}
		if out, err = s.containersAt(out, dense, hashes, e, del); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// localOrder returns the rows sel lists, stably ordered by the local segment
// of the store's ring their hash lies in: arrival order is kept inside a
// local segment, so an encoding's runs break at most at the cuts.
func (s *Store) localOrder(hashes []uint32, sel []int32) []int32 {
	var next [vhash.LocalSegments]int
	for _, i := range sel {
		next[s.cut.Of(hashes[i])]++
	}
	for l, at := 0, 0; l < len(next); l++ {
		next[l], at = at, at+next[l]
	}
	out := make([]int32, len(sel))
	for _, i := range sel {
		l := s.cut.Of(hashes[i])
		out[next[l]] = i
		next[l]++
	}
	return out
}

// ExportVersions appends every committed row version in the store — live and
// deleted — to v, in deterministic order (ROS containers in order).
// Provisional rows are skipped and provisional delete marks are exported
// as live; callers serialize against writers (the engine holds the table's
// EXCLUSIVE lock while exporting), so in practice there is no provisional
// state to skip.
func (s *Store) ExportVersions(v *Versions) error {
	from := v.Len()
	for _, c := range s.snapshot() {
		c.mu.RLock()
		start, del := c.start, slices.Clone(c.del)
		c.mu.RUnlock()
		if start >= ProvisionalBase {
			continue
		}
		if err := v.add(c.Cols, c.Hashes, start, del); err != nil {
			return err
		}
	}
	for i := from; i < v.Len(); i++ {
		v.Dels[i] = committedDel(v.Dels[i])
	}
	return nil
}

// ImportVersions appends the versions sel lists to the store as epoch-stamped
// ROS containers (one per distinct insert epoch, ascending). Rebalance
// populates a freshly allocated store with it.
func (s *Store) ImportVersions(v *Versions, sel []int32) error {
	ros, err := s.containers(v, sel)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.add(ros...)
	s.mu.Unlock()
	return nil
}

// ReplaceContents atomically replaces the store's entire contents with the
// given versions. Node recovery uses it to rebuild a stale
// store in place from a current replica: the swap happens under the store's
// own lock, and because the caller holds the table's EXCLUSIVE lock no writer
// can interleave. Readers that snapshotted the old containers keep scanning
// them safely — a reader only reaches a store while its node is UP, at a
// snapshot epoch the old contents fully cover.
func (s *Store) ReplaceContents(v *Versions) error {
	ros, err := s.containers(v, IdentitySel(v.Len()))
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ros, s.pending, s.marked = nil, byTag{}, byTag{}
	s.add(ros...)
	s.mu.Unlock()
	return nil
}
