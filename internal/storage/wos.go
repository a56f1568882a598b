package storage

import (
	"sync"

	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

// WOS is the Write Optimized Storage buffer: a row-oriented, in-memory store
// that absorbs trickle inserts (the S2V status-table updates, for example)
// before the tuple mover converts them to columnar ROS containers. Each row
// carries its insert epoch (or provisional tag) and an optional delete mark,
// obeying the same MVCC visibility rules as ROS rows.
type WOS struct {
	mu     sync.RWMutex
	rows   []types.Row
	hashes []uint32
	starts []uint64
	dels   []uint64 // 0 = live
}

// NewWOS returns an empty write-optimized buffer.
func NewWOS() *WOS { return &WOS{} }

// Append adds copies of rows stamped with the given epoch or provisional tag,
// hashing them on the segmentation columns.
func (w *WOS) Append(rows []types.Row, segIdx []int, tag uint64) {
	owned, hashes := make([]types.Row, len(rows)), make([]uint32, len(rows))
	for i, r := range rows {
		owned[i], hashes[i] = r.Clone(), vhash.HashRow(r, segIdx)
	}
	w.appendOwned(owned, hashes, tag)
}

// appendOwned adds rows nobody else will write to, with their hashes, stamped
// with the given epoch or provisional tag.
func (w *WOS) appendOwned(rows []types.Row, hashes []uint32, tag uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rows = append(w.rows, rows...)
	w.hashes = append(w.hashes, hashes...)
	for range rows {
		w.starts = append(w.starts, tag)
		w.dels = append(w.dels, 0)
	}
}

// Scan visits rows visible under vis whose hash is inside hr.
func (w *WOS) Scan(vis Visibility, hr vhash.Range, fn func(types.Row) bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	for i, r := range w.rows {
		if !vis.RowVisible(w.starts[i], w.dels[i]) || !hr.Contains(w.hashes[i]) {
			continue
		}
		if !fn(r) {
			return
		}
	}
}

// DeleteWhere marks matching visible rows deleted with the given tag and
// returns the count.
func (w *WOS) DeleteWhere(vis Visibility, tag uint64, match func(types.Row) bool) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for i, r := range w.rows {
		if !vis.RowVisible(w.starts[i], w.dels[i]) {
			continue
		}
		if w.dels[i] != 0 && w.dels[i] != tag {
			continue
		}
		if match(r) {
			w.dels[i] = tag
			n++
		}
	}
	return n
}

// RebaseInserts rewrites provisional insert tags to the commit epoch.
func (w *WOS) RebaseInserts(tag, epoch uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range w.starts {
		if w.starts[i] == tag {
			w.starts[i] = epoch
		}
	}
}

// DropInserts removes rows inserted under the provisional tag (abort).
func (w *WOS) DropInserts(tag uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	keep := 0
	for i := range w.rows {
		if w.starts[i] == tag {
			continue
		}
		w.rows[keep] = w.rows[i]
		w.hashes[keep] = w.hashes[i]
		w.starts[keep] = w.starts[i]
		w.dels[keep] = w.dels[i]
		keep++
	}
	w.rows, w.hashes, w.starts, w.dels = w.rows[:keep], w.hashes[:keep], w.starts[:keep], w.dels[:keep]
}

// RebaseDeletes rewrites provisional delete marks to the commit epoch.
func (w *WOS) RebaseDeletes(tag, epoch uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range w.dels {
		if w.dels[i] == tag {
			w.dels[i] = epoch
		}
	}
}

// ClearDeletes erases provisional delete marks (abort).
func (w *WOS) ClearDeletes(tag uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range w.dels {
		if w.dels[i] == tag {
			w.dels[i] = 0
		}
	}
}

// DrainCommitted removes and returns all committed live rows with their
// hashes and epochs. Provisional rows stay put. Rows whose delete has
// committed are purged only once no reader can still see them: a row deleted
// at epoch d is visible to a reader pinned at any epoch p < d, so it must
// survive until the Ancient History Mark (the minimum pinned epoch) reaches
// d. Rows with ahm < delete epoch stay buffered; the rest are purged.
func (w *WOS) DrainCommitted(ahm uint64) (rows []types.Row, hashes []uint32, epochs []uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	keep := 0
	for i := range w.rows {
		switch {
		case w.starts[i] >= ProvisionalBase || (w.dels[i] != 0 && w.dels[i] >= ProvisionalBase):
			// Uncommitted insert or uncommitted delete: keep buffered.
			w.rows[keep] = w.rows[i]
			w.hashes[keep] = w.hashes[i]
			w.starts[keep] = w.starts[i]
			w.dels[keep] = w.dels[i]
			keep++
		case w.dels[i] != 0 && w.dels[i] <= ahm:
			// Committed delete behind the AHM: no pinned reader can see the
			// row any more, purge it.
		case w.dels[i] != 0:
			// Committed delete still ahead of the AHM: a reader pinned
			// between the insert and delete epochs must keep seeing the row,
			// so it stays buffered until the AHM catches up.
			w.rows[keep] = w.rows[i]
			w.hashes[keep] = w.hashes[i]
			w.starts[keep] = w.starts[i]
			w.dels[keep] = w.dels[i]
			keep++
		default:
			rows = append(rows, w.rows[i])
			hashes = append(hashes, w.hashes[i])
			epochs = append(epochs, w.starts[i])
		}
	}
	w.rows, w.hashes, w.starts, w.dels = w.rows[:keep], w.hashes[:keep], w.starts[:keep], w.dels[:keep]
	return rows, hashes, epochs
}

// Len returns the number of buffered rows (live, deleted, and provisional).
func (w *WOS) Len() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.rows)
}
