package storage

import (
	"sync"

	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

// WOS is the Write Optimized Storage buffer: an in-memory store that absorbs
// trickle inserts (the S2V status-table updates, for example) before the tuple
// mover converts them to ROS containers. It holds them the way a container
// does — dense typed vectors, a hash per row — with each row's own insert epoch
// (or provisional tag) and delete mark beside them, obeying the same MVCC
// visibility rules as ROS rows.
//
// Rows are appended to buf in place and never moved: removing rows (an abort, a
// moveout) installs a fresh buffer holding the rest, so a scan's batch, which
// aliases the vectors it was cut from, never sees one change under it.
type WOS struct {
	mu  sync.RWMutex
	buf *Versions
}

// NewWOS returns an empty write-optimized buffer.
func NewWOS() *WOS { return &WOS{buf: &Versions{}} }

// appendColumns adds the rows cols hold, with their hashes, stamped with the
// given epoch or provisional tag.
func (w *WOS) appendColumns(cols []Column, hashes []uint32, tag uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.add(cols, IdentitySel(len(hashes)), hashes, nil, nil, tag)
}

// batch returns the buffer as a scan batch — its vectors as they stand, the
// selection vector the rows visible under vis whose hash is inside hr — or nil
// when it selects nothing.
func (w *WOS) batch(schema types.Schema, vis Visibility, hr vhash.Range) *Batch {
	w.mu.RLock()
	defer w.mu.RUnlock()
	v := w.buf
	var sel []int32
	for i, start := range v.Starts {
		if vis.RowVisible(start, v.Dels[i]) && hr.Contains(v.Hashes[i]) {
			sel = append(sel, int32(i))
		}
	}
	if sel == nil {
		return nil
	}
	return &Batch{Schema: schema, Cols: v.Columns(), Hashes: v.Hashes[:v.Len():v.Len()], Sel: sel, wos: v}
}

// replace installs a buffer holding only the rows keep lists.
func (w *WOS) replace(keep []int32) {
	old, kept := w.buf, &Versions{}
	// The vectors are the buffer's own, of its own kinds: add cannot fail.
	_ = kept.add(old.Columns(), keep, old.Hashes, old.Starts, old.Dels, 0)
	w.buf = kept
}

// DropInserts removes rows inserted under the provisional tag (abort).
func (w *WOS) DropInserts(tag uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	keep := make([]int32, 0, w.buf.Len())
	for i, start := range w.buf.Starts {
		if start != tag {
			keep = append(keep, int32(i))
		}
	}
	if len(keep) < w.buf.Len() {
		w.replace(keep)
	}
}

// rewrite replaces every from in marks with to and reports whether it found
// one.
func rewrite(marks []uint64, from, to uint64) (found bool) {
	for i, m := range marks {
		if m == from {
			marks[i], found = to, true
		}
	}
	return found
}

// DrainCommitted removes every row whose insert has committed and returns the
// buffer that held them with the positions of the rows that move on to ROS.
// A row moves with its delete mark, committed or provisional, which its
// container carries as the buffer did. Only a row whose delete committed at or
// behind the Ancient History Mark (the minimum pinned epoch) is purged: a row
// deleted at epoch d is visible to a reader pinned at any epoch p < d, and
// once the AHM reaches d no such reader is left. Uncommitted inserts stay.
func (w *WOS) DrainCommitted(ahm uint64) (from *Versions, drained []int32) {
	w.mu.Lock()
	defer w.mu.Unlock()
	v := w.buf
	keep := make([]int32, 0, v.Len())
	for i, start := range v.Starts {
		switch del := v.Dels[i]; {
		case start >= ProvisionalBase:
			keep = append(keep, int32(i))
		case del == 0 || del > ahm: // a provisional mark is always ahead
			drained = append(drained, int32(i))
		}
	}
	if len(keep) < v.Len() {
		w.replace(keep)
	}
	return v, drained
}

// Len returns the number of buffered rows (live, deleted, and provisional).
func (w *WOS) Len() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.buf.Len()
}
