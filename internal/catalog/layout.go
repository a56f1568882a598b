package catalog

import (
	"slices"

	"vsfabric/internal/storage"
	"vsfabric/internal/vhash"
)

// Layout is where a table's rows live, and the one place replica placement
// is decided. A segmented table splits the hash ring into one segment per
// ring position: segment s lives on its primary store at position s and on
// buddy replica r at position (s+r+1) mod n, so the table survives K node
// losses. An unsegmented table keeps a full replica at every position.
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

	segs     int           // segments holding distinct rows: len(Ring), or 1 unsegmented
	keys     []int         // 0..len(Ring)-1, the Replicas keys Segs hands out
	ranges   []vhash.Range // per ring position
	replicas [][]Replica   // per Replicas key, in failover order
	hosted   [][]Replica   // per ring position, primary first
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
// replicas per position. Each store is told the ring range it holds — its
// segment, or the whole ring for an unsegmented replica — so it cuts large
// writes at that range's local segments (storage.NewSegmentStore).
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
	for p := range l.Stores {
		l.Stores[p] = storage.NewSegmentStore(def.Schema, segIdx, l.ranges[p])
	}
	if def.Segmented && def.KSafety > 0 {
		l.Buddies = make([][]*storage.Store, def.KSafety)
		for r := range l.Buddies {
			l.Buddies[r] = make([]*storage.Store, n)
			for p := range l.Buddies[r] {
				// Buddy r at position p holds segment (p-r-1) mod n.
				l.Buddies[r][p] = storage.NewSegmentStore(def.Schema, segIdx, l.ranges[((p-r-1)%n+n)%n])
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
