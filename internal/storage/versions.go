package storage

import (
	"sort"

	"vsfabric/internal/types"
)

// RowVersion is one committed row with its full MVCC history: the row values,
// its precomputed segmentation hash, the epoch it was inserted at, and the
// epoch it was deleted at (0 = still live). Exporting and re-importing
// versions — rather than just live rows — is what lets recovery and rebalance
// move a segment between stores without breaking AT EPOCH readers pinned
// anywhere in the table's history: a scan at any past epoch sees exactly the
// same rows through the rebuilt store as it did through the original.
type RowVersion struct {
	Row   types.Row
	Hash  uint32
	Start uint64
	Del   uint64
}

// ExportVersions returns every committed row version in the store — live and
// deleted — in deterministic order (ROS containers in order, then the WOS).
// Provisional rows are skipped and provisional delete marks are exported as
// live; callers serialize against writers (the engine holds the table's
// EXCLUSIVE lock while exporting), so in practice there is no provisional
// state to skip.
func (s *Store) ExportVersions() []RowVersion {
	var out []RowVersion
	for _, c := range s.snapshot() {
		c.mu.RLock()
		start := c.start
		var del []uint64
		if c.del != nil {
			del = append(make([]uint64, 0, len(c.del)), c.del...)
		}
		c.mu.RUnlock()
		if start >= ProvisionalBase {
			continue
		}
		for i := 0; i < c.RowCount; i++ {
			d := uint64(0)
			if del != nil && del[i] < ProvisionalBase {
				d = del[i]
			}
			out = append(out, RowVersion{Row: c.Row(i), Hash: c.Hashes[i], Start: start, Del: d})
		}
	}
	s.wos.mu.RLock()
	for i, r := range s.wos.rows {
		if s.wos.starts[i] >= ProvisionalBase {
			continue
		}
		d := s.wos.dels[i]
		if d >= ProvisionalBase {
			d = 0
		}
		out = append(out, RowVersion{Row: r.Clone(), Hash: s.wos.hashes[i], Start: s.wos.starts[i], Del: d})
	}
	s.wos.mu.RUnlock()
	return out
}

// containersFromVersions groups versions by ascending start epoch and builds
// one ROS container per epoch, carrying the exported hashes and delete
// vector. The grouping is a pure function of the version multiset, so two
// stores importing the same versions (e.g. the original rebalance and its WAL
// replay) end up with identical container sequences.
func containersFromVersions(schema types.Schema, versions []RowVersion) ([]*ROSContainer, error) {
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

// ImportVersions appends the given versions to the store as epoch-stamped ROS
// containers (one per distinct insert epoch, ascending). Used by rebalance to
// populate a freshly allocated store, and by moveout.
func (s *Store) ImportVersions(versions []RowVersion) error {
	ros, err := containersFromVersions(s.schema, versions)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ros = append(s.ros, ros...)
	s.mu.Unlock()
	return nil
}

// ReplaceContents atomically replaces the store's entire contents (ROS and
// WOS) with the given versions. Node recovery uses it to rebuild a stale
// store in place from a current replica: the swap happens under the store's
// own lock, and because the caller holds the table's EXCLUSIVE lock no writer
// can interleave. Readers that snapshotted the old containers keep scanning
// them safely — a reader only reaches a store while its node is UP, at a
// snapshot epoch the old contents fully cover.
func (s *Store) ReplaceContents(versions []RowVersion) error {
	ros, err := containersFromVersions(s.schema, versions)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ros = ros
	s.mu.Unlock()
	s.wos.mu.Lock()
	s.wos.rows, s.wos.hashes, s.wos.starts, s.wos.dels = nil, nil, nil, nil
	s.wos.mu.Unlock()
	return nil
}
