package core

import (
	"fmt"
	"slices"
	"testing"

	"vsfabric/internal/vhash"
)

// TestPartitionRangesAreWholeLocalSegments: for 1–4 nodes and 1, 2 and 4
// partitions per segment, every hash range planPartitions emits lies in the
// segment of the node it is sent to and is a union of whole local segments of
// that segment (vhash.Split(segment, vhash.LocalSegments)) — the whole ring's,
// for an unsegmented table — so the node's store takes or skips each
// container it cut from a large write whole, by its hash span.
func TestPartitionRangesAreWholeLocalSegments(t *testing.T) {
	for n := 1; n <= 4; n++ {
		segs := vhash.Segments(n)
		lay := &planLayout{}
		for s, seg := range segs {
			lay.addrs = append(lay.addrs, fmt.Sprintf("node-%d", s))
			lay.segLo, lay.segHi = append(lay.segLo, seg.Lo), append(lay.segHi, seg.Hi)
		}
		for _, per := range []int{1, 2, 4} {
			for _, segmented := range []bool{true, false} {
				r := &v2sRelation{desc: &relDesc{segmented: segmented}}
				r.opts.NumPartitions = per // the whole ring is the one segment
				if segmented {
					r.opts.NumPartitions = n * per
				}
				covered := uint64(0)
				for i, specs := range r.planPartitions(lay) {
					for _, spec := range specs {
						held := vhash.Range{Lo: 0, Hi: vhash.RingSize}
						if segmented {
							held = segs[slices.Index(lay.addrs, spec.addr)]
						}
						var bounds []uint64
						for _, l := range vhash.Split(held, vhash.LocalSegments) {
							bounds = append(bounds, l.Lo, l.Hi)
						}
						got := vhash.Range{Lo: spec.lo, Hi: spec.hi}
						if got.Empty() || !held.Covers(got) || !slices.Contains(bounds, got.Lo) || !slices.Contains(bounds, got.Hi) {
							t.Errorf("%d nodes, %d partitions, segmented %t: partition %d asks %s for %v, not whole local segments of %v",
								n, r.opts.NumPartitions, segmented, i, spec.addr, got, vhash.Split(held, vhash.LocalSegments))
						}
						covered += got.Width()
					}
				}
				if covered != vhash.RingSize {
					t.Errorf("%d nodes, %d partitions, segmented %t: ranges cover %d ring positions, want the ring", n, r.opts.NumPartitions, segmented, covered)
				}
			}
		}
	}
}
