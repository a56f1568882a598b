package catalog

import (
	"slices"
	"sort"

	"vsfabric/internal/storage"
	"vsfabric/internal/vhash"
)

// Layout is where a table's rows live, and the one place replica placement
// — and, through Place, row placement — is decided. A segmented table splits
// the hash ring into one segment per ring position: segment s lives on its
// primary store at position s and on buddy replica r at position (s+r+1)
// mod n, so the table survives K node losses. An unsegmented table keeps a
// full replica at every position.
//
// Writes, reads, k-safety checks, rebalance and recovery all walk the
// answers below with their own health predicate (reads want an UP node,
// writes a write-accepting one); none of them restates the rule. The
// answers are computed once, when the layout is built, so a lookup
// allocates nothing. A layout is immutable: rebalance builds a new one and
// swaps it in (Catalog.SwapLayout).
type Layout struct {
	// Ring[p] is the node ID at ring position p. Before elastic membership
	// the ring was implicitly [0..numNodes-1]; each table carries its own so
	// an online rebalance can move it one table at a time while readers of
	// the old layout stay correct.
	Ring []int
	// Stores[p] is ring position p's primary store: for a segmented table
	// segment p, for an unsegmented one a full replica.
	Stores []*storage.Store
	// Buddies[r][p] is ring position p's r-th buddy replica (segmented
	// tables only), holding segment (p-r-1) mod n.
	Buddies [][]*storage.Store

	segs     int              // segments holding distinct rows: len(Ring), or 1 unsegmented
	keys     []int            // 0..len(Ring)-1, the Replicas keys Segs hands out
	ranges   []vhash.Range    // per ring position
	cuts     []vhash.LocalCut // ranges' local-segment boundaries, per ring position
	replicas [][]Replica      // per Replicas key, in failover order
	hosted   [][]Replica      // per ring position, primary first
}

// Replica is one store of a table: the node hosting it and the segment
// whose rows it holds (0 for an unsegmented table's every replica).
type Replica struct {
	Store *storage.Store
	Node  int
	Seg   int
}

// NewLayout allocates empty stores for a table of the given definition on
// ring: one primary per position and, for a segmented table, KSafety buddy
// replicas per position (buddy r at position p holds segment (p-r-1) mod n).
// The ring range each position holds — its segment, or the whole ring for an
// unsegmented replica — and that range's local segments, where Place cuts
// large writes, are computed here, once.
func NewLayout(def TableDef, segIdx []int, ring []int) *Layout {
	n := len(ring)
	l := &Layout{Ring: slices.Clone(ring), Stores: make([]*storage.Store, n)}
	if def.Segmented {
		l.ranges = vhash.Segments(n)
	} else {
		for range n {
			l.ranges = append(l.ranges, vhash.Range{Lo: 0, Hi: vhash.RingSize})
		}
	}
	for _, r := range l.ranges {
		l.cuts = append(l.cuts, vhash.LocalCutOf(r))
	}
	for p := range l.Stores {
		l.Stores[p] = storage.NewStore(def.Schema, segIdx)
	}
	if def.Segmented && def.KSafety > 0 {
		l.Buddies = make([][]*storage.Store, def.KSafety)
		for r := range l.Buddies {
			l.Buddies[r] = make([]*storage.Store, n)
			for p := range l.Buddies[r] {
				l.Buddies[r][p] = storage.NewStore(def.Schema, segIdx)
			}
		}
	}

	l.keys = make([]int, n)
	l.replicas = make([][]Replica, n)
	l.hosted = make([][]Replica, n)
	for p := range l.keys {
		l.keys[p] = p
	}
	if !def.Segmented {
		l.segs = 1
		for p, st := range l.Stores {
			l.hosted[p] = []Replica{{Store: st, Node: l.Ring[p]}}
			// A read of position p tries p's own replica, then every other
			// position in ring order.
			l.replicas[p] = append(l.replicas[p], l.hosted[p][0])
			for q, other := range l.Stores {
				if q != p {
					l.replicas[p] = append(l.replicas[p], Replica{Store: other, Node: l.Ring[q]})
				}
			}
		}
		return l
	}
	l.segs = n
	place := func(seg, pos int, st *storage.Store) {
		rep := Replica{Store: st, Node: l.Ring[pos], Seg: seg}
		l.replicas[seg] = append(l.replicas[seg], rep)
		l.hosted[pos] = append(l.hosted[pos], rep)
	}
	for seg, st := range l.Stores {
		place(seg, seg, st)
	}
	for r, reps := range l.Buddies {
		for seg := range l.Ring {
			host := (seg + r + 1) % n
			place(seg, host, reps[host])
		}
	}
	return l
}

// Segs lists the segments holding distinct rows, as Replicas keys: every
// segment of a segmented table; for an unsegmented table the one segment,
// keyed near so its replicas fail over from position near (a reader passes
// its own position; near is otherwise ignored).
func (l *Layout) Segs(near int) []int {
	if l.segs == 1 {
		return l.keys[near : near+1 : near+1]
	}
	return l.keys[:l.segs:l.segs]
}

// Replicas returns the stores holding segment seg, with their nodes, in
// failover order: the primary, then buddy 0…K-1. An unsegmented table's
// one segment is held at every position, and seg may be any position: the
// list starts there and goes on in ring order. The caller must not modify
// the slice.
func (l *Layout) Replicas(seg int) []Replica { return l.replicas[seg] }

// Hosted returns the stores ring position pos hosts, each with the segment
// it holds: the primary, then buddy slot 0…K-1. It is the inverse of
// Replicas. The caller must not modify the slice.
func (l *Layout) Hosted(pos int) []Replica { return l.hosted[pos] }

// NumNodes returns the number of ring positions the table spans.
func (l *Layout) NumNodes() int { return len(l.Ring) }

// PosOf returns the ring position hosted by the given node ID, or -1 if the
// node is not in this ring (e.g. freshly added, pre-rebalance).
func (l *Layout) PosOf(nodeID int) int { return slices.Index(l.Ring, nodeID) }

// SegmentRanges returns the hash range owned by each ring position.
// Unsegmented tables report the full ring for every position (any replica
// can serve any range locally) — this is what lets V2S use synthetic hash
// ranges for them. The caller must not modify the slice.
func (l *Layout) SegmentRanges() []vhash.Range { return l.ranges }

// HomeNode returns the segment owning the given row hash: its Replicas key,
// and for a segmented table the ring position of its primary.
func (l *Layout) HomeNode(h uint32) int { return vhash.SegmentOf(h, l.segs) }

// Place cuts rows into containers and hands them to every store of the
// layout — the one place rows are split across a layout's stores, and the one
// place they are cut into containers. The rows are held in blocks, each
// batch's vectors holding exactly the rows it selects, with the rows'
// segmentation hashes in block order and, when dels is not nil, their delete
// marks in the same order. The row numbers are partitioned by home segment,
// and each segment's share is cut out of the blocks once, by one exact-size
// copy (a share that is every row of a single block, in order, such as a
// small write's to an unsegmented table, takes the vectors as they are). A
// share's hashes and marks are gathered the same way. A share of
// storage.LocalCutRows rows or more is laid out in local-segment order
// (arrival order inside each local segment) and cut into one container per
// local segment it touches, each a sub-slice of the share; a smaller share
// keeps arrival order and makes one container. Each share's containers are
// built once (storage.NewContainers) — vectors, hashes, zone maps and codes
// — and visit is called with them for each replica of the segment in
// failover order, the segments ascending, with the share's marks (cut at the
// containers' ends; nil = none): a replica attaches them (Store.Attach), so
// all of a segment's replicas share everything but their headers and delete
// vectors. The write path, WAL replay and rebalance all place rows through
// it, so each reproduces the others' containers exactly.
func (l *Layout) Place(blocks []*storage.Batch, hashes []uint32, dels []uint64, visit func(st *storage.Store, nodeID int, cs []*storage.ROSContainer, dels []uint64) error) error {
	schema := l.Stores[0].Schema()
	visitReplicas := func(seg int, cols []storage.Column, hashes []uint32, dels []uint64, ends []int) error {
		cs, err := storage.NewContainers(schema, cols, hashes, ends)
		if err != nil {
			return err
		}
		for _, rep := range l.replicas[seg] {
			if err := visit(rep.Store, rep.Node, cs, dels); err != nil {
				return err
			}
		}
		return nil
	}
	if l.segs == 1 && len(hashes) < storage.LocalCutRows {
		cols, _, err := storage.DenseColumns(schema, blocks)
		if err != nil {
			return err
		}
		return visitReplicas(0, cols, hashes, dels, []int{len(hashes)})
	}
	// next[seg·L+l] counts, then places, segment seg's rows in its local
	// segment l, and so ends as where local segment l ends in seg's share; a
	// share below the floor places every row through l = 0, which ends as
	// the share's size. slots keeps each row's seg·L+l from the counting pass
	// for the placing one. order holds every share's row numbers, share after
	// share, and sels[seg] is seg's; one allocation holds slots and order.
	const L = vhash.LocalSegments
	next := make([]int, l.segs*L)
	rows := make([]int32, 2*len(hashes))
	slots, order := rows[:len(hashes):len(hashes)], rows[len(hashes):]
	for i, h := range hashes {
		home := l.HomeNode(h)
		slot := home*L + l.cuts[home].Of(h)
		slots[i] = int32(slot)
		next[slot]++
	}
	sels := make([][]int32, l.segs)
	at := 0
	for home := range sels {
		share := next[home*L : (home+1)*L]
		total := 0
		for i, c := range share {
			share[i] = total
			total += c
		}
		sels[home] = order[at : at+total : at+total]
		at += total
		if total < storage.LocalCutRows {
			clear(share)
		}
	}
	for i, slot := range slots {
		home := int(slot) / L
		if len(sels[home]) < storage.LocalCutRows {
			slot = int32(home * L)
		}
		sels[home][next[slot]] = int32(i)
		next[slot]++
	}
	var starts []int32 // starts[b]: block b's first row number, once a share needs them
	for home, sel := range sels {
		if len(sel) == 0 {
			continue
		}
		ends := next[home*L : (home+1)*L]
		if len(sel) < storage.LocalCutRows {
			ends = ends[:1]
		}
		whole := len(sel) == len(hashes) && slices.IsSorted(sel)
		if whole && len(blocks) == 1 {
			if err := visitReplicas(home, blocks[0].Cols, hashes, dels, ends); err != nil {
				return err
			}
			continue
		}
		shareHashes, shareDels := hashes, dels
		if !whole {
			shareHashes = make([]uint32, len(sel))
			for k, i := range sel {
				shareHashes[k] = hashes[i]
			}
			if dels != nil {
				shareDels = make([]uint64, len(sel))
				for k, i := range sel {
					shareDels[k] = dels[i]
				}
			}
		}
		if starts == nil {
			starts = make([]int32, len(blocks)+1)
			for b, bt := range blocks {
				starts[b+1] = starts[b] + int32(len(bt.Sel))
			}
		}
		share, _, err := storage.DenseColumns(schema, blockViews(blocks, starts, sel))
		if err != nil {
			return err
		}
		if err := visitReplicas(home, share, shareHashes, shareDels, ends); err != nil {
			return err
		}
	}
	return nil
}

// blockViews cuts a share's row numbers across the blocks (ascending inside
// each local segment) into one selection of a block per ascending run of rows
// in that block, rewriting sel in place to the block's own row numbers.
// starts[b] is block b's first row number, starts[len(blocks)] the total.
func blockViews(blocks []*storage.Batch, starts []int32, sel []int32) []*storage.Batch {
	views := make([]*storage.Batch, 0, len(blocks))
	for lo := 0; lo < len(sel); {
		b := sort.Search(len(blocks), func(b int) bool { return starts[b+1] > sel[lo] })
		hi := lo + 1
		for hi < len(sel) && sel[hi] > sel[hi-1] && sel[hi] < starts[b+1] {
			hi++
		}
		for k := lo; k < hi; k++ {
			sel[k] -= starts[b]
		}
		views = append(views, &storage.Batch{Cols: blocks[b].Cols, Sel: sel[lo:hi]})
		lo = hi
	}
	return views
}
