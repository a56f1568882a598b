package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

// Batch is one unit of vectorized scan output: the immutable column vectors
// of a single ROS container plus a selection vector of the row indexes that
// survived MVCC visibility (and the storage scan's hash-range mask, which the
// engine's scan leaves at the whole ring).
// Predicate kernels narrow the selection into vectors of their own; only the
// rows left in Sel at the end of the pipeline are ever materialized into
// types.Row form (late materialization, the MonetDB/X100 execution model).
type Batch struct {
	Schema types.Schema
	Cols   []Column
	// Hashes holds the per-row segmentation hash, aligned with the columns.
	// Kernels over HASH(segcols) predicates evaluate against it directly.
	Hashes []uint32
	// HashSpan is the ring interval every entry of Hashes lies in, deleted
	// rows' included: a container's batch carries its container's span, so a
	// filter decides a hash range for the whole batch when the span lies
	// inside the range or outside it. Empty when unknown.
	HashSpan vhash.Range
	// Sel lists surviving row indexes: in ascending order out of a scan, a
	// join or a filter; in result order out of a sort. A join to unique keys
	// hands on its probe batch's vectors with Sel narrowed to the matched
	// rows.
	//
	// Sel is read-only to everyone who did not allocate it: a scan hands out
	// the shared identity selection (IdentitySel) for a container every row
	// of which it sees, so narrowing writes into a vector the narrower owns.
	Sel []int32

	// ros is the container a store's scan cut the batch from, so
	// Store.MarkDeleted can mark the rows Sel is narrowed to where they live.
	// Nil on a derived batch.
	ros *ROSContainer
}

// Len returns the number of selected rows.
func (b *Batch) Len() int { return len(b.Sel) }

// Row materializes physical row i (not a selection index) across all
// columns: the row-at-a-time reference scan's (Store.Scan) and the test
// oracle's view of a batch. Production evaluates expressions over the
// vectors (vexec.CompileExpr).
func (b *Batch) Row(i int, dst types.Row) types.Row {
	if cap(dst) < len(b.Cols) {
		dst = make(types.Row, len(b.Cols))
	}
	dst = dst[:len(b.Cols)]
	for j, col := range b.Cols {
		dst[j] = col.Get(i)
	}
	return dst
}

// Project returns a batch over the same rows carrying only the given columns,
// in the given order (repeats allowed). The vectors are shared, not copied.
func (b *Batch) Project(colIdx []int) *Batch {
	p := &Batch{Cols: make([]Column, len(colIdx)), Hashes: b.Hashes, HashSpan: b.HashSpan, Sel: b.Sel}
	p.Schema.Cols = make([]types.Column, len(colIdx))
	for j, ci := range colIdx {
		p.Cols[j], p.Schema.Cols[j] = b.Cols[ci], b.Schema.Cols[ci]
	}
	return p
}

// identity is the process-wide identity selection, 0,1,2,… Nothing writes a
// vector once it is published: growing it publishes a new, longer one, and
// batches cut from an older one keep that one alive, unchanged.
var (
	identityMu sync.Mutex
	identity   atomic.Pointer[[]int32]
)

// IdentitySel returns the selection vector of n rows that selects them all: a
// prefix of the one shared identity vector, capacity-capped so that appending
// to it copies. Like every Sel, it is read-only to whoever did not allocate it.
func IdentitySel(n int) []int32 {
	if v := identityVals(); len(v) >= n {
		return v[:n:n]
	}
	identityMu.Lock()
	defer identityMu.Unlock()
	v := identityVals()
	if len(v) < n {
		// Doubling keeps slowly growing requests from rebuilding it each
		// time; it never holds more than twice the largest one.
		v = make([]int32, max(n, 2*len(v)))
		for i := range v {
			v[i] = int32(i)
		}
		identity.Store(&v)
	}
	return v[:n:n]
}

func identityVals() []int32 {
	if p := identity.Load(); p != nil {
		return *p
	}
	return nil
}

// IsIdentity reports whether sel is a prefix of the shared identity vector —
// so that sel[k] == k for every k — by where it starts, not by its values. An
// identity cut from a vector since outgrown, or one a caller built itself,
// reads false: the answer picks a dense loop over an indexed one, never what
// the loop computes.
func IsIdentity(sel []int32) bool {
	lo, ok := IdentityRun(sel)
	return ok && lo == 0
}

// IdentityRun reports whether sel is a run of the shared identity vector —
// so that sel[k] == lo+k for every k — and its first row lo: a LIMIT-pushed
// scan filters a whole container in such runs. Like IsIdentity it decides by
// where sel lies, not by its values.
func IdentityRun(sel []int32) (lo int, ok bool) {
	v := identityVals()
	if len(sel) == 0 {
		return 0, false
	}
	lo = int(sel[0])
	return lo, lo >= 0 && lo < len(v) && &sel[0] == &v[lo]
}

// CheckIdentitySel reports an error when an entry of the shared identity
// vector differs from its index: something wrote through a Sel it did not
// allocate. Test packages run it after their tests.
func CheckIdentitySel() error {
	for k, i := range identityVals() {
		if int(i) != k {
			return fmt.Errorf("storage: shared identity selection written: entry %d holds %d", k, i)
		}
	}
	return nil
}

// SelectedRows counts the rows a batch set selects.
func SelectedRows(batches []*Batch) int {
	n := 0
	for _, b := range batches {
		n += len(b.Sel)
	}
	return n
}

// boxBlock is how many rows Materialize boxes per column pass: enough to
// amortize the switch on the column's kind, few enough that the block of
// boxed rows stays in cache while every column writes into it.
const boxBlock = 128

// slabValues is how many types.Value (40 B each, types.TestValueSize)
// Materialize allocates at most at a time: 256 KiB, the L2 cache of the
// smallest common core. A make of boxed values zeroes them, and boxing then
// stores into every one, so one result-sized array is two passes over memory
// — a v2s_full partition is 33 MB, far past any core's L2, and boxColumn's
// stores found each line evicted since the zeroing. Allocated a slab at a
// time, the zeroing leaves the slab in cache for the stores that follow.
const slabValues = 256 << 10 / 40

// slabRows is how many rows of width values one slab holds: as many whole
// boxBlocks as fit slabValues, at least one.
func slabRows(width int) int {
	return max(1, slabValues/max(1, width)/boxBlock) * boxBlock
}

// Materialize boxes the rows the batches select, in order, into one
// types.Row each. This is the one place column vectors become types.Value:
// it runs only for rows that survived every kernel, and only at the edge
// that asked for rows. The rows' values are allocated a slab of slabRows
// rows at a time (a result that fits one slab is one allocation, of exactly
// its size), filled boxBlock rows by boxBlock rows, column by column; each
// row has len == cap == its width, so appending to one never writes the
// next.
func Materialize(batches []*Batch) []types.Row {
	total := SelectedRows(batches)
	if total == 0 {
		return nil
	}
	width := len(batches[0].Cols)
	per := slabRows(width)
	out := make([]types.Row, total)
	var slab []types.Value // the current slab's rows not yet boxed
	done, room := 0, 0     // rows boxed; rows slab has room for
	for _, b := range batches {
		for lo := 0; lo < len(b.Sel); {
			if room == 0 {
				room = min(per, total-done)
				slab = make([]types.Value, room*width)
			}
			sel := b.Sel[lo:min(lo+boxBlock, lo+room, len(b.Sel))]
			for j, col := range b.Cols {
				boxColumn(slab[j:], width, col, sel)
			}
			for k := range sel {
				out[done+k] = slab[k*width : (k+1)*width : (k+1)*width]
			}
			slab = slab[len(sel)*width:]
			done, room, lo = done+len(sel), room-len(sel), lo+len(sel)
		}
	}
	return out
}

// boxColumn writes the selected values of col to dst[0], dst[width],
// dst[2*width], ...: one column of a row-major block.
//
// dst must be fresh zeroed memory; Materialize's own slab is the only caller.
// Each typed case therefore stores only the fields its type uses, T and one
// value field, and never assigns a whole types.Value: a composite-literal
// store into a pointer-holding struct first zeroes it, and while the
// collector marks that zeroing takes the bulk write barrier once per value.
// S, the one pointer field, is written only for VARCHAR. A NULL slot ends up
// exactly types.NullValue of the column's type.
func boxColumn(dst []types.Value, width int, col Column, sel []int32) {
	switch c := col.(type) {
	case *Int64Column:
		for k, i := range sel {
			d := &dst[k*width]
			d.T, d.I = types.Int64, c.Vals[i]
		}
	case *Float64Column:
		for k, i := range sel {
			d := &dst[k*width]
			d.T, d.F = types.Float64, c.Vals[i]
		}
	case *StringColumn:
		for k, i := range sel {
			d := &dst[k*width]
			d.T, d.S = types.Varchar, c.Vals[i]
		}
	case *BoolColumn:
		for k, i := range sel {
			d := &dst[k*width]
			d.T, d.B = types.Bool, c.Vals[i]
		}
	default:
		for k, i := range sel {
			dst[k*width] = col.Get(int(i))
		}
	}
	if nulls := nullsOf(col); nulls != nil {
		// Undo the value field the typed pass stored under a NULL slot.
		for k, i := range sel {
			if nulls[i] {
				d := &dst[k*width]
				d.I, d.F, d.B, d.Null = 0, 0, false, true
				if d.S != "" {
					d.S = ""
				}
			}
		}
	}
}

// coversRing reports whether hr covers the whole hash ring (no mask needed).
func coversRing(hr vhash.Range) bool { return hr.Lo == 0 && hr.Hi == vhash.RingSize }

// batchFromContainer builds the container's batch. A container with no delete
// vector, scanned over the whole ring, has every row selected: its batch
// carries the shared identity selection and nothing is built. Otherwise the
// selection vector is computed in one pass under a single RLock — the delete
// vector and the hash-range mask are applied together, instead of the
// row-at-a-time path's per-row lock acquisition.
func batchFromContainer(c *ROSContainer, schema types.Schema, vis Visibility, hr vhash.Range) *Batch {
	c.mu.RLock()
	if !vis.seesInsert(c.start) {
		c.mu.RUnlock()
		return nil
	}
	full := coversRing(hr)
	if c.del == nil && full {
		c.mu.RUnlock()
		return &Batch{Schema: schema, Cols: c.Cols, Hashes: c.Hashes, HashSpan: c.span, Sel: IdentitySel(c.RowCount), ros: c}
	}
	sel := make([]int32, 0, c.RowCount)
	if c.del == nil {
		// No deletes recorded: the selection is purely the hash mask and can
		// be built without consulting MVCC per row.
		c.mu.RUnlock()
		for i, h := range c.Hashes {
			if hr.Contains(h) {
				sel = append(sel, int32(i))
			}
		}
	} else {
		del := c.del
		for i := 0; i < c.RowCount; i++ {
			if !full && !hr.Contains(c.Hashes[i]) {
				continue
			}
			if vis.seesDelete(del[i]) {
				continue
			}
			sel = append(sel, int32(i))
		}
		c.mu.RUnlock()
	}
	return &Batch{Schema: schema, Cols: c.Cols, Hashes: c.Hashes, HashSpan: c.span, Sel: sel, ros: c}
}

// ScanBatches calls fn once per ROS container whose insert vis sees, with
// MVCC visibility and the hash-range mask already applied in the selection
// vector. Returning false from fn stops the scan. Batches share the
// containers' immutable column vectors, and a batch over a container the scan
// sees whole carries the shared identity selection: callers write through
// neither, and narrow a batch by giving it a selection vector of their own.
func (s *Store) ScanBatches(vis Visibility, hr vhash.Range, fn func(*Batch) bool) error {
	return s.ScanContainers(vis, hr, nil, fn)
}

// ScanContainers is ScanBatches with a container-level prune hook: before a
// ROS container's selection vector is built, prune is consulted with the
// container — its zone maps, row count and hash span — and a true return
// skips it entirely (the caller has proven that no row can satisfy its
// predicate). A nil prune scans everything.
func (s *Store) ScanContainers(vis Visibility, hr vhash.Range, prune func(*ROSContainer) bool, fn func(*Batch) bool) error {
	for _, c := range s.snapshot() {
		if prune != nil && prune(c) {
			continue
		}
		b := batchFromContainer(c, s.schema, vis, hr)
		if b == nil {
			continue
		}
		if !fn(b) {
			return nil
		}
	}
	return nil
}

// ScanBatchesPruned is ScanContainers with a prune hook on a container's zone
// maps and physical row count alone. A container without zone maps — no
// constructor builds one — is never pruned. A nil prune scans everything.
func (s *Store) ScanBatchesPruned(vis Visibility, hr vhash.Range, prune func(stats []ColStats, rowCount int) bool, fn func(*Batch) bool) error {
	if prune == nil {
		return s.ScanContainers(vis, hr, nil, fn)
	}
	return s.ScanContainers(vis, hr, func(c *ROSContainer) bool {
		return len(c.stats) == len(c.Cols) && prune(c.stats, c.RowCount)
	}, fn)
}

// CountVisible returns the number of rows visible under vis inside hr using
// selection-vector popcounts — no row materialization.
func (s *Store) CountVisible(vis Visibility, hr vhash.Range) int {
	n := 0
	_ = s.ScanBatches(vis, hr, func(b *Batch) bool {
		n += len(b.Sel)
		return true
	})
	return n
}
