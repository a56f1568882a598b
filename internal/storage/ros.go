package storage

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

// ProvisionalBase is the lower bound of the provisional-epoch tag space.
// While a transaction is open, its inserts are stamped with a unique tag
// >= ProvisionalBase and its deletes marked with the same tag. Committed
// epochs are small monotonically increasing integers, so a provisional row is
// invisible to every snapshot reader; at commit the tag is rebased to the
// real commit epoch, at abort it is swept away.
const ProvisionalBase uint64 = 1 << 62

// DefaultCacheBytes is 64 MiB; only the benchmark's recorded config reads it.
const DefaultCacheBytes = 64 << 20

// Visibility carries the MVCC read context for a scan: the snapshot epoch
// plus the reader's own provisional tag (0 for plain snapshot reads). A row
// is visible if it was inserted at or before the snapshot epoch — or by this
// very transaction — and not deleted under the same rule.
type Visibility struct {
	Epoch uint64 // snapshot epoch (inclusive)
	Tag   uint64 // reader's own provisional tag, 0 if none
}

func (v Visibility) seesInsert(start uint64) bool {
	return start <= v.Epoch || (v.Tag != 0 && start == v.Tag)
}

func (v Visibility) seesDelete(del uint64) bool {
	if del == 0 {
		return false
	}
	return del <= v.Epoch || (v.Tag != 0 && del == v.Tag)
}

// RowVisible reports whether a row with the given insert epoch and delete
// mark is visible under v.
func (v Visibility) RowVisible(start, del uint64) bool {
	return v.seesInsert(start) && !v.seesDelete(del)
}

// ROSContainer is one immutable Read Optimized Storage container: a batch of
// rows stored column-wise, stamped with the epoch (or provisional tag) at
// which it was inserted. Deletes are recorded out-of-line in a delete vector
// so readers at earlier epochs still see the rows (MVCC, the basis of the
// connector's AT EPOCH consistent reads in §3.1.2 of the paper).
type ROSContainer struct {
	Schema   types.Schema
	Cols     []Column
	RowCount int
	Hashes   []uint32 // per-row segmentation hash, precomputed at write time

	// span is the ring interval Hashes lies in, [min, max+1): computed when
	// the container is built or loaded, never stored, so the on-disk format
	// does not carry it. Empty for a container of no rows.
	span vhash.Range

	// stats holds the per-column zone maps (null count, min/max), computed
	// once at construction or load. Columns are immutable, so the slice is
	// shared by clones and never mutated after the container is published.
	stats []ColStats

	mu    sync.RWMutex
	start uint64   // insert epoch or provisional tag
	del   []uint64 // delete epoch/tag per row; 0 = live

	// diskRef is the path of the container's persisted file ("" if the
	// container has never been written), and dirty reports whether its MVCC
	// state (start epoch or delete vector) changed since that write. The
	// checkpoint uses the pair to skip rewriting unchanged containers.
	diskRef string
	dirty   bool
}

// newContainer is the one constructor of in-memory containers — every write,
// rebalance and recovery import end here — so every container carries zone
// maps. cols are n-row dense vectors, one per schema column, which the
// container keeps as they are (they may be shared with other containers,
// never written again); hashes are the rows' segmentation hashes and del the
// delete vector (nil = no row deleted).
func newContainer(cols []Column, n int, schema types.Schema, hashes []uint32, start uint64, del []uint64) (*ROSContainer, error) {
	if err := checkColumns(cols, n, schema); err != nil {
		return nil, err
	}
	return &ROSContainer{
		Schema:   schema,
		Cols:     cols,
		RowCount: n,
		Hashes:   hashes,
		span:     hashSpan(hashes),
		stats:    ComputeStats(cols),
		start:    start,
		del:      del,
	}, nil
}

// checkColumns verifies cols are n-row vectors of the schema's column types.
func checkColumns(cols []Column, n int, schema types.Schema) error {
	if len(cols) != schema.NumCols() {
		return fmt.Errorf("storage: %d column vectors for a %d-column schema", len(cols), schema.NumCols())
	}
	for i, c := range cols {
		if c.Type() != schema.Cols[i].T || c.Len() != n {
			return fmt.Errorf("storage: column %d is %d rows of %v, want %d rows of %v",
				i, c.Len(), c.Type(), n, schema.Cols[i].T)
		}
	}
	return nil
}

// hashSpan returns the ring interval the hashes lie in, [min, max+1), or the
// empty range when there are none.
func hashSpan(hashes []uint32) vhash.Range {
	if len(hashes) == 0 {
		return vhash.Range{}
	}
	lo, hi := hashes[0], hashes[0]
	for _, h := range hashes[1:] {
		lo, hi = min(lo, h), max(hi, h)
	}
	return vhash.Range{Lo: uint64(lo), Hi: uint64(hi) + 1}
}

// HashColumns computes the segmentation hash of each of the n rows the
// vectors hold — vhash.Hash over the segIdx columns (every column when segIdx
// is empty), a column at a time, without boxing a value.
func HashColumns(cols []Column, segIdx []int, n int) []uint32 {
	state := make([]uint64, n)
	for i := range state {
		state[i] = vhash.Seed
	}
	if len(segIdx) == 0 {
		for _, c := range cols {
			mixColumn(state, c)
		}
	} else {
		for _, ci := range segIdx {
			mixColumn(state, cols[ci])
		}
	}
	hashes := make([]uint32, n)
	for i, h := range state {
		hashes[i] = vhash.Fold(h)
	}
	return hashes
}

// mixColumn mixes row i of c into state[i], for every row.
func mixColumn(state []uint64, c Column) {
	c = Densify(c)
	nulls := nullsOf(c)
	switch c := c.(type) {
	case *Int64Column:
		mixVals(state, c.Vals, nulls, vhash.MixInt)
	case *Float64Column:
		mixVals(state, c.Vals, nulls, vhash.MixFloat)
	case *StringColumn:
		mixVals(state, c.Vals, nulls, vhash.MixString)
	case *BoolColumn:
		mixVals(state, c.Vals, nulls, vhash.MixBool)
	}
}

func mixVals[T any](state []uint64, vals []T, nulls []bool, mix func(uint64, T) uint64) {
	for i, v := range vals {
		if nulls != nil && nulls[i] {
			state[i] = vhash.MixNull(state[i])
		} else {
			state[i] = mix(state[i], v)
		}
	}
}

// Stats returns the container's per-column zone maps, aligned with Cols. The
// stats cover every physical row (deleted rows included), so a predicate that
// excludes [Min, Max] excludes every visible row too — pruning on them is
// always a sound superset test.
func (c *ROSContainer) Stats() []ColStats { return c.stats }

// HashSpan returns the ring interval the container's row hashes lie in,
// [min, max+1) (empty for a container of no rows).
func (c *ROSContainer) HashSpan() vhash.Range { return c.span }

// StartEpoch returns the container's insert epoch (or provisional tag).
func (c *ROSContainer) StartEpoch() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.start
}

// DiskRef returns the path the container was last persisted to ("" if never)
// and whether its MVCC state has changed since.
func (c *ROSContainer) DiskRef() (ref string, dirty bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.diskRef, c.dirty
}

// SetDiskRef records that the container's current committed state is durable
// at the given path, clearing the dirty flag.
func (c *ROSContainer) SetDiskRef(ref string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.diskRef = ref
	c.dirty = false
}

// Row materializes row i. Like Store.Scan, which it serves, it is kept only as
// the row-at-a-time reference the batch scan is tested against.
func (c *ROSContainer) Row(i int) types.Row {
	r := make(types.Row, len(c.Cols))
	for j, col := range c.Cols {
		r[j] = col.Get(i)
	}
	return r
}

// DataBytes estimates the raw columnar footprint of the container.
func (c *ROSContainer) DataBytes() int {
	n := 0
	for _, col := range c.Cols {
		switch cc := col.(type) {
		case *Int64Column, *Float64Column:
			n += 8 * col.Len()
		case *BoolColumn:
			n += col.Len()
		case *StringColumn:
			for _, s := range cc.Vals {
				n += 4 + len(s)
			}
		}
	}
	return n
}

// LocalCutRows is the fewest rows a store cuts at its local segments
// (vhash.LocalSegments): a write or an epoch's versions reaching a store with
// at least this many rows become one container per local segment they touch,
// fewer stay one container. Below it, a V2S partition's range test over the
// share costs less than the three more containers every later scan, DELETE
// and checkpoint would visit, and at it each cut container averages
// 4 096 / 4 = 1 024 rows, the run a LIMIT-pushed scan filters first
// (vertica's limitChunk). Trickle and small writes keep one container.
const LocalCutRows = 4096

// Store holds the ROS containers for one table's data on one node (one
// "segment" of the table, in the paper's terminology). Every write lands as a
// container of its own — or, from LocalCutRows rows up, one per local segment
// of the store's ring range — so a row never moves once written: a batch a
// scan cut names its rows for as long as its container lives.
type Store struct {
	mu     sync.RWMutex
	schema types.Schema
	segIdx []int
	// ring is the hash range the store holds (its segment, or the whole ring
	// for an unsegmented replica); empty for a store built by NewStore, which
	// never cuts at local segments.
	ring vhash.Range
	ros  []*ROSContainer
	// stale is set when a cluster write skips this store because its node is
	// not accepting writes (DOWN/REMOVED). A stale store's contents lag the
	// committed state and must be rebuilt from a live replica before its node
	// serves reads again; a store that was never skipped is current by
	// construction, even across a down window (the write path rejects writes
	// to a segment with no writable replica, so nothing can be missed).
	stale atomic.Bool
}

// NewStore creates an empty per-node store for a table with the given schema
// and segmentation column indexes. It is not told a ring range, so every
// write stays one container.
func NewStore(schema types.Schema, segIdx []int) *Store {
	return &Store{schema: schema, segIdx: segIdx}
}

// NewSegmentStore is NewStore for a store holding the rows of ring: a
// segment, or the whole ring for an unsegmented replica. It cuts what it
// builds from LocalCutRows rows up at ring's local segments, so no such
// container spans two of them.
func NewSegmentStore(schema types.Schema, segIdx []int, ring vhash.Range) *Store {
	return &Store{schema: schema, segIdx: segIdx, ring: ring}
}

// Ring returns the hash range the store holds (empty when it was not told).
func (s *Store) Ring() vhash.Range { return s.ring }

// MarkStale records that this store missed a cluster write (its node was not
// accepting writes when the write committed).
func (s *Store) MarkStale() { s.stale.Store(true) }

// ClearStale marks the store current again (after recovery rebuilt it).
func (s *Store) ClearStale() { s.stale.Store(false) }

// Stale reports whether the store has missed at least one cluster write.
func (s *Store) Stale() bool { return s.stale.Load() }

// Schema returns the table schema.
func (s *Store) Schema() types.Schema { return s.schema }

// SegIdx returns the segmentation column indexes.
func (s *Store) SegIdx() []int { return s.segIdx }

// AppendColumns adds the rows held by cols — dense vectors, one per schema
// column, with the rows' segmentation hashes already computed — as ROS
// containers stamped with the given epoch or provisional tag, which take the
// vectors over without copying them: one container, or, from LocalCutRows
// rows up arriving in local-segment order (the engine's write path orders
// them so), one per local segment, each a sub-slice of the vectors. It is the
// one entry the engine's write path and WAL replay add rows through: a commit
// rebases the containers' tag, an abort drops them.
func (s *Store) AppendColumns(cols []Column, hashes []uint32, tag uint64) error {
	if len(hashes) == 0 {
		return nil
	}
	var buf [vhash.LocalSegments]*ROSContainer
	ros, err := s.containersAt(buf[:0], cols, hashes, tag, nil)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ros = append(s.ros, ros...)
	s.mu.Unlock()
	return nil
}

// cuts returns where the store cuts rows with these hashes into containers:
// container l ends at ends[l] (an empty one is skipped). From LocalCutRows
// rows up, on a store told its ring, rows in local-segment order make one
// container per local segment; any others make one container.
func (s *Store) cuts(hashes []uint32) (ends [vhash.LocalSegments]int) {
	one := ends
	for l := range one {
		one[l] = len(hashes)
	}
	if !s.cutsAt(len(hashes)) {
		return one
	}
	at := 0
	for i, h := range hashes {
		l := vhash.LocalSegmentOf(s.ring, h)
		if l < at {
			return one
		}
		for ; at < l; at++ {
			ends[at] = i
		}
	}
	for ; at < len(ends); at++ {
		ends[at] = len(hashes)
	}
	return ends
}

// cutsAt reports whether the store cuts n rows at its local segments.
func (s *Store) cutsAt(n int) bool { return n >= LocalCutRows && !s.ring.Empty() }

// containersAt appends to dst the containers of rows cut where cuts says:
// each takes its rows' sub-slice of cols, hashes and del (nil = none
// deleted), and a single container takes them as they are.
func (s *Store) containersAt(dst []*ROSContainer, cols []Column, hashes []uint32, start uint64, del []uint64) ([]*ROSContainer, error) {
	n := len(hashes)
	ends := s.cuts(hashes)
	lo := 0
	for _, hi := range ends {
		if hi == lo {
			continue
		}
		part, h, d := cols, hashes, del
		if hi-lo < n {
			part = make([]Column, len(cols))
			for j, c := range cols {
				part[j] = sliceDense(c, lo, hi)
			}
			h = hashes[lo:hi:hi]
			if d != nil {
				if d = del[lo:hi:hi]; !slices.ContainsFunc(d, func(e uint64) bool { return e != 0 }) {
					d = nil
				}
			}
		}
		c, err := newContainer(part, hi-lo, s.schema, h, start, d)
		if err != nil {
			return nil, err
		}
		dst = append(dst, c)
		lo = hi
	}
	return dst, nil
}

func (s *Store) snapshot() []*ROSContainer {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*ROSContainer, len(s.ros))
	copy(out, s.ros)
	return out
}

// Scan calls fn for every row visible under vis whose segmentation hash lies
// in hr (pass the full ring to scan everything). Returning false stops the
// scan. It is the row-at-a-time reference scan: tests diff ScanBatches, and the
// engine built on it, against it, and nothing else calls it.
func (s *Store) Scan(vis Visibility, hr vhash.Range, fn func(row types.Row) bool) {
	for _, c := range s.snapshot() {
		c.mu.RLock()
		start := c.start
		var del []uint64
		if c.del != nil {
			del = append(make([]uint64, 0, len(c.del)), c.del...)
		}
		c.mu.RUnlock()
		if !vis.seesInsert(start) {
			continue
		}
		for i := 0; i < c.RowCount; i++ {
			if !hr.Contains(c.Hashes[i]) {
				continue
			}
			if del != nil && vis.seesDelete(del[i]) {
				continue
			}
			if !fn(c.Row(i)) {
				return
			}
		}
	}
}

// MarkDeleted marks the rows b selects as deleted with the given tag (a commit
// epoch or provisional tag) in the container the batch was scanned from, under
// its lock, and returns the number of rows marked. A row somebody else already
// deleted (possibly uncommitted) is left alone: first delete wins, mirroring
// write-write conflict avoidance under the engine's table locks. A batch that
// is not a scan's marks nothing and fails.
func (s *Store) MarkDeleted(b *Batch, tag uint64) (int, error) {
	if len(b.Sel) == 0 {
		return 0, nil
	}
	c := b.ros
	if c == nil {
		return 0, fmt.Errorf("storage: batch was not cut from a container")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.del == nil {
		c.del = make([]uint64, c.RowCount)
	}
	n := 0
	for _, i := range b.Sel {
		if c.del[i] == 0 || c.del[i] == tag {
			c.del[i] = tag
			n++
		}
	}
	c.dirty = c.dirty || n > 0
	return n, nil
}

// RebaseInserts rewrites containers inserted under the provisional tag to the
// final commit epoch.
func (s *Store) RebaseInserts(tag, epoch uint64) {
	for _, c := range s.snapshot() {
		c.mu.Lock()
		if c.start == tag {
			c.start = epoch
			c.dirty = true
		}
		c.mu.Unlock()
	}
}

// DropInserts removes containers inserted under the provisional tag
// (transaction abort).
func (s *Store) DropInserts(tag uint64) {
	s.mu.Lock()
	kept := s.ros[:0]
	for _, c := range s.ros {
		if c.StartEpoch() != tag {
			kept = append(kept, c)
		}
	}
	s.ros = kept
	s.mu.Unlock()
}

// RebaseDeletes rewrites delete marks carrying the provisional tag to the
// final commit epoch.
func (s *Store) RebaseDeletes(tag, epoch uint64) {
	for _, c := range s.snapshot() {
		c.mu.Lock()
		for i, d := range c.del {
			if d == tag {
				c.del[i], c.dirty = epoch, true
			}
		}
		c.mu.Unlock()
	}
}

// ClearDeletes erases delete marks carrying the provisional tag (abort).
func (s *Store) ClearDeletes(tag uint64) { s.RebaseDeletes(tag, 0) }

// RowCount returns the number of rows visible under vis. It runs on the
// vectorized path: selection-vector popcounts, no row materialization.
func (s *Store) RowCount(vis Visibility) int {
	return s.CountVisible(vis, vhash.Range{Lo: 0, Hi: vhash.RingSize})
}

// ContainerCount returns the number of ROS containers.
func (s *Store) ContainerCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.ros)
}

// DataBytes returns the estimated stored bytes across all ROS containers.
func (s *Store) DataBytes() int {
	n := 0
	for _, c := range s.snapshot() {
		n += c.DataBytes()
	}
	return n
}

// Validate checks internal invariants; used by tests and the engine's
// consistency checker.
func (s *Store) Validate() error {
	for idx, c := range s.snapshot() {
		for j, col := range c.Cols {
			if col.Len() != c.RowCount {
				return fmt.Errorf("storage: container %d column %d has %d rows, want %d", idx, j, col.Len(), c.RowCount)
			}
		}
		if len(c.Hashes) != c.RowCount {
			return fmt.Errorf("storage: container %d has %d hashes, want %d", idx, len(c.Hashes), c.RowCount)
		}
	}
	return nil
}

// Containers returns a snapshot of the store's ROS containers in order. The
// checkpoint walks it to persist committed containers.
func (s *Store) Containers() []*ROSContainer { return s.snapshot() }

// AttachContainer appends a finished container: one just built by a load, or
// one loaded from disk (crash recovery). A container whose column types are
// not the store's schema's is refused, so every vector a scan hands on is of
// its schema column's type.
func (s *Store) AttachContainer(c *ROSContainer) error {
	if !slices.EqualFunc(c.Schema.Cols, s.schema.Cols, func(a, b types.Column) bool { return a.T == b.T }) {
		return fmt.Errorf("storage: container of %v does not fit a store of %v", c.Schema, s.schema)
	}
	s.mu.Lock()
	s.ros = append(s.ros, c)
	s.mu.Unlock()
	return nil
}

// TotalRows returns the physical number of rows across ROS containers,
// regardless of visibility — the amount of work a full scan visits.
func (s *Store) TotalRows() int {
	n := 0
	for _, c := range s.snapshot() {
		n += c.RowCount
	}
	return n
}
