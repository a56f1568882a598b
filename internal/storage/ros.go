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

// newContainer is the one constructor of in-memory containers — every write
// and rebalance builds its containers here (NewContainers), once for all the
// replicas that attach them, and recovery adopts what they built — so every
// container carries zone maps, and codes where they apply (coded). cols are
// n-row dense vectors, one per schema column, which the container keeps as
// they are (they may be shared with other containers, never written again)
// but for a coded column's fresh header; hashes are the rows' segmentation
// hashes and del the delete vector (nil = no row deleted).
func newContainer(cols []Column, n int, schema types.Schema, hashes []uint32, start uint64, del []uint64) (*ROSContainer, error) {
	if err := checkColumns(cols, n, schema); err != nil {
		return nil, err
	}
	stats := ComputeStats(cols)
	return &ROSContainer{
		Schema:   schema,
		Cols:     coded(cols, stats, n),
		RowCount: n,
		Hashes:   hashes,
		span:     hashSpan(hashes),
		stats:    stats,
		start:    start,
		del:      del,
	}, nil
}

// NewContainers builds the containers of the rows held by cols — dense
// vectors, one per schema column, with the rows' segmentation hashes already
// computed — cut where ends says: container l ends at row ends[l], an empty
// one is skipped, and each takes its rows' sub-slice of the vectors and
// hashes (a single container takes them as they are). It is where
// catalog.Layout.Place, the one place rows are cut into containers, builds a
// segment's containers once: every replica of the segment attaches them
// (Store.Attach), so their vectors, hashes, zone maps and codes exist once.
func NewContainers(schema types.Schema, cols []Column, hashes []uint32, ends []int) ([]*ROSContainer, error) {
	cs := make([]*ROSContainer, 0, len(ends))
	lo := 0
	for _, hi := range ends {
		if hi == lo {
			continue
		}
		part, h := cols, hashes
		if hi-lo < len(hashes) {
			part = make([]Column, len(cols))
			for j, c := range cols {
				part[j] = sliceDense(c, lo, hi)
			}
			h = hashes[lo:hi:hi]
		}
		c, err := newContainer(part, hi-lo, schema, h, 0, nil)
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
		lo = hi
	}
	return cs, nil
}

// header returns a container of its own over c's rows, stamped start, with
// del its delete vector: it shares c's column vectors, hashes, span and zone
// maps, which are never written again, and has its own lock, dirty flag and
// disk ref (none yet, so the next checkpoint writes its file under the store
// that holds it). A replica attaches a segment's containers (Store.Attach),
// and recovery adopts its source's (Store.ReplaceContents), through it.
func (c *ROSContainer) header(start uint64, del []uint64) *ROSContainer {
	return &ROSContainer{Schema: c.Schema, Cols: c.Cols, RowCount: c.RowCount, Hashes: c.Hashes,
		span: c.span, stats: c.stats, start: start, del: del}
}

// CodeSpan bounds the values a coded column holds: they lie in [min,
// min+CodeSpan), so each code v − min fits in 7 bits. The compare kernel
// tests 8 codes in a 64-bit word, and each byte's clear top bit is the guard
// that keeps one lane's subtraction from borrowing from the next.
const CodeSpan = 128

// CodeRows is the fewest rows a container keeps codes for: LocalCutRows
// over vhash.LocalSegments, the rows a container cut at local segments
// averages, so every container a bulk write or a move makes has them. A
// trickle write's container (an autocommit INSERT, a WOS moveout) does not:
// its scans cost a container's fixed work, not a row's, and codes would add
// an allocation and a pass to every small commit.
const CodeRows = LocalCutRows / vhash.LocalSegments

// coded returns the container's column vectors with a fresh header carrying
// codes (Int64Column.Codes) on each column it keeps them for — a null-free
// INTEGER column whose zone map spans less than CodeSpan, in a container of
// at least CodeRows rows — and cols itself when no column needs one. A
// header that has codes already (a moved or adopted container's) is kept:
// they belong to its vector. The codes are built from stats, the zone maps,
// and checked against the values as they are cut: a zone map that lies (a
// corrupt file's) builds none.
func coded(cols []Column, stats []ColStats, n int) []Column {
	var out []Column
	for j, c := range cols {
		ic, ok := c.(*Int64Column)
		st := stats[j]
		if !ok || ic.codes != nil || n < CodeRows || ic.Nulls != nil || !st.HasMinMax || uint64(st.Max.I)-uint64(st.Min.I) >= CodeSpan {
			continue
		}
		if out == nil {
			out = slices.Clone(cols)
		}
		out[j] = &Int64Column{Vals: ic.Vals, codes: cutCodes(ic.Vals, st.Min.I)}
	}
	if out == nil {
		return cols
	}
	return out
}

// cutCodes returns vals as codes v − base, or nil when a value lies outside
// [base, base+CodeSpan).
func cutCodes(vals []int64, base int64) *smallCodes {
	c := make([]uint8, len(vals))
	for i, v := range vals {
		d := uint64(v) - uint64(base)
		if d >= CodeSpan {
			return nil
		}
		c[i] = uint8(d)
	}
	return &smallCodes{base: base, c: c}
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
	return HashBatches([]*Batch{{Cols: cols, Sel: IdentitySel(n)}}, segIdx)
}

// HashBatches is HashColumns over a load's blocks: the hashes of every row of
// every batch, in order. Each batch's vectors hold exactly the rows it
// selects, in order. A block is mixed column by column (vhash.MixInts and its
// siblings) into a state the size of the largest block, then folded.
func HashBatches(batches []*Batch, segIdx []int) []uint32 {
	hashes := make([]uint32, 0, SelectedRows(batches))
	var state []uint64
	for _, b := range batches {
		if cap(state) < len(b.Sel) {
			state = make([]uint64, len(b.Sel))
		}
		state = state[:len(b.Sel)]
		for i := range state {
			state[i] = vhash.Seed
		}
		if len(segIdx) == 0 {
			for _, c := range b.Cols {
				mixColumn(state, c)
			}
		} else {
			for _, ci := range segIdx {
				mixColumn(state, b.Cols[ci])
			}
		}
		for _, h := range state {
			hashes = append(hashes, vhash.Fold(h))
		}
	}
	return hashes
}

// mixColumn mixes row i of c into state[i], for every row.
func mixColumn(state []uint64, c Column) {
	c = Densify(c)
	nulls := nullsOf(c)
	switch c := c.(type) {
	case *Int64Column:
		vhash.MixInts(state, c.Vals, nulls)
	case *Float64Column:
		vhash.MixFloats(state, c.Vals, nulls)
	case *StringColumn:
		vhash.MixStrings(state, c.Vals, nulls)
	case *BoolColumn:
		vhash.MixBools(state, c.Vals, nulls)
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

// Committed returns the container's committed view, read under its lock: its
// insert epoch (or provisional tag), and dst with its delete vector appended,
// a provisional mark reading as live — dst as it is when no row carries a
// committed mark. A checkpoint writes this view (MarshalContainer) and
// recovery moves it, each into a vector of its own (dst nil); rebalance
// gathers a group of containers' marks into one vector.
func (c *ROSContainer) Committed(dst []uint64) (start uint64, del []uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if !slices.ContainsFunc(c.del, committedMark) {
		return c.start, dst
	}
	at := len(dst)
	dst = slices.Grow(dst, len(c.del))[:at+len(c.del)]
	for i, d := range c.del {
		if !committedMark(d) {
			d = 0
		}
		dst[at+i] = d
	}
	return c.start, dst
}

// Marked reports whether a row of the container carries a committed delete
// mark.
func (c *ROSContainer) Marked() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return slices.ContainsFunc(c.del, committedMark)
}

func committedMark(d uint64) bool { return d != 0 && d < ProvisionalBase }

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

// LocalCutRows is the fewest rows catalog.Layout.Place cuts at local
// segments (vhash.LocalSegments): a write, or one insert epoch of a move,
// reaching a segment with at least this many rows becomes one container per
// local segment it touches; fewer stay one container. Below it, a V2S
// partition's range test over the share costs less than the three more
// containers every later scan, DELETE and checkpoint would visit, and at it
// each cut container averages 4 096 / 4 = 1 024 rows, the run a LIMIT-pushed
// scan filters first (vertica's limitChunk). Trickle and small writes keep
// one container.
const LocalCutRows = 4096

// Store holds the ROS containers for one table's data on one node (one
// "segment" of the table, in the paper's terminology). Every write lands as
// the containers Layout.Place cut it into, each attached with a header of the
// store's own, so a row never moves once written: a batch a scan cut names
// its rows for as long as its container lives.
type Store struct {
	mu     sync.RWMutex
	schema types.Schema
	segIdx []int
	ros    []*ROSContainer
	// pending indexes the containers still stamped with a provisional tag by
	// that tag, so a commit — live or replayed — visits only its own
	// transaction's containers, however many the store holds. An abort
	// finds its containers the same way, then walks ros once to unlink them.
	pending byTag
	// marked indexes the containers holding delete marks under a provisional
	// tag by that tag, so a commit or abort rewrites only their marks.
	marked byTag
	// visits counts the containers commits and aborts took from pending and
	// marked (read by tests); DropInserts' walk of ros is not counted.
	visits atomic.Int64
	// stale is set when a cluster write skips this store because its node is
	// not accepting writes (DOWN/REMOVED). A stale store's contents lag the
	// committed state and must be rebuilt from a live replica before its node
	// serves reads again; a store that was never skipped is current by
	// construction, even across a down window (the write path rejects writes
	// to a segment with no writable replica, so nothing can be missed).
	stale atomic.Bool
}

// NewStore creates an empty per-node store for a table with the given schema
// and segmentation column indexes.
func NewStore(schema types.Schema, segIdx []int) *Store {
	return &Store{schema: schema, segIdx: segIdx, pending: byTag{}, marked: byTag{}}
}

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
// column, with the rows' segmentation hashes already computed and, when dels
// is not nil, their delete marks — as one ROS container stamped with the
// given epoch or provisional tag: NewContainers and Attach for a caller that
// holds vectors, not a layout's share.
func (s *Store) AppendColumns(cols []Column, hashes []uint32, start uint64, dels []uint64) error {
	if len(hashes) == 0 {
		return nil
	}
	cs, err := NewContainers(s.schema, cols, hashes, []int{len(hashes)})
	if err != nil {
		return err
	}
	s.Attach(cs, start, dels)
	return nil
}

// Attach adds containers built for every replica of a segment
// (NewContainers, which checks their vectors against the table's schema) to
// the store, each under a header of its own stamped with the given epoch or
// provisional tag: it shares their vectors, hashes and zone maps, and holds
// its own copy of its rows' delete marks, cut out of dels (the rows' marks in
// container order; nil = none) at the same ends — the delete vector is the
// one part of a container that replicas must not share. It is the one entry
// the write path, WAL replay and rebalance add rows through: a commit rebases
// a provisional tag, an abort drops its containers.
func (s *Store) Attach(cs []*ROSContainer, start uint64, dels []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lo := 0
	for _, c := range cs {
		var del []uint64
		if dels != nil {
			if d := dels[lo : lo+c.RowCount]; slices.ContainsFunc(d, func(e uint64) bool { return e != 0 }) {
				del = slices.Clone(d)
			}
		}
		s.add(c.header(start, del))
		lo += c.RowCount
	}
}

// ReplaceContents atomically replaces the store's entire contents with src's
// committed containers, one for one and in order: node recovery rebuilds a
// stale store in place from a current replica of its segment with it. Each
// adopted container is a header of its source's (header) holding its own
// copy of the source's committed delete marks (Committed). The swap happens
// under the store's own lock, and because the caller holds the table's
// EXCLUSIVE lock no writer can interleave. Readers that snapshotted the old
// containers keep scanning them safely — a reader only reaches a store while
// its node is UP, at a snapshot epoch the old contents fully cover.
func (s *Store) ReplaceContents(src *Store) error {
	if err := s.fits(src.schema); err != nil {
		return err
	}
	var ros []*ROSContainer
	for _, c := range src.snapshot() {
		start, del := c.Committed(nil)
		if start >= ProvisionalBase {
			continue
		}
		ros = append(ros, c.header(start, del))
	}
	s.mu.Lock()
	s.ros, s.pending, s.marked = ros, byTag{}, byTag{}
	s.mu.Unlock()
	return nil
}

// fits refuses containers whose column types are not the store's schema's,
// so every vector a scan hands on is of its schema column's type.
func (s *Store) fits(schema types.Schema) error {
	if !slices.EqualFunc(schema.Cols, s.schema.Cols, func(a, b types.Column) bool { return a.T == b.T }) {
		return fmt.Errorf("storage: containers of %v do not fit a store of %v", schema, s.schema)
	}
	return nil
}

// add appends containers to the store, indexing the provisional ones by
// their tag. s.mu must be held.
func (s *Store) add(ros ...*ROSContainer) {
	s.ros = append(s.ros, ros...)
	for _, c := range ros {
		if c.start >= ProvisionalBase {
			s.pending[c.start] = append(s.pending[c.start], c)
		}
	}
}

// byTag files containers by a provisional tag.
type byTag map[uint64][]*ROSContainer

// take removes the tag's containers from index (pending or marked).
func (s *Store) take(index *byTag, tag uint64) []*ROSContainer {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs := (*index)[tag]
	delete(*index, tag)
	s.visits.Add(int64(len(cs)))
	return cs
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
// is not a scan's marks nothing and fails. It files a container it marks
// under a provisional tag by that tag, for the commit or abort.
func (s *Store) MarkDeleted(b *Batch, tag uint64) (int, error) {
	if len(b.Sel) == 0 {
		return 0, nil
	}
	c := b.ros
	if c == nil {
		return 0, fmt.Errorf("storage: batch was not cut from a container")
	}
	c.mu.Lock()
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
	c.mu.Unlock()
	if n > 0 && tag >= ProvisionalBase {
		s.mu.Lock()
		// Only the last container filed is compared: a later repeat is rewritten twice.
		if cs := s.marked[tag]; len(cs) == 0 || cs[len(cs)-1] != c {
			s.marked[tag] = append(cs, c)
		}
		s.mu.Unlock()
	}
	return n, nil
}

// RebaseInserts rewrites containers inserted under the provisional tag to the
// final commit epoch. It visits those containers only.
func (s *Store) RebaseInserts(tag, epoch uint64) {
	for _, c := range s.take(&s.pending, tag) {
		c.mu.Lock()
		c.start, c.dirty = epoch, true
		c.mu.Unlock()
	}
}

// DropInserts removes containers inserted under the provisional tag
// (transaction abort). It finds them through the index, then unlinks them in
// one walk of the store's container list under s.mu: a pointer compare per
// container, no container lock. Aborts are rare; commits, which every
// autocommit write makes, do no such walk.
func (s *Store) DropInserts(tag uint64) {
	cs := s.take(&s.pending, tag)
	if len(cs) == 0 {
		return
	}
	s.mu.Lock()
	s.ros = slices.DeleteFunc(s.ros, func(c *ROSContainer) bool { return slices.Contains(cs, c) })
	s.mu.Unlock()
}

// RebaseDeletes rewrites delete marks carrying the provisional tag to the
// final commit epoch, in the containers MarkDeleted filed under the tag only.
func (s *Store) RebaseDeletes(tag, epoch uint64) {
	for _, c := range s.take(&s.marked, tag) {
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

// Containers returns a snapshot of the store's ROS containers in order. The
// checkpoint walks it to persist committed containers.
func (s *Store) Containers() []*ROSContainer { return s.snapshot() }

// AttachContainer appends a container loaded from its file (crash
// recovery's container-file loader) as it is, its header included. A
// container whose column types are not the store's schema's is refused.
func (s *Store) AttachContainer(c *ROSContainer) error {
	if err := s.fits(c.Schema); err != nil {
		return err
	}
	s.mu.Lock()
	s.add(c)
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
