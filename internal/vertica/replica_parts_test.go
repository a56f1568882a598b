package vertica

import (
	"fmt"
	"strings"
	"testing"

	"vsfabric/internal/storage"
)

// TestReplicasShareContainerParts: on 3 nodes, a KSAFE 1 and a KSAFE 2
// segmented table and an unsegmented one, each loaded by one COPY that cuts
// every share at its local segments. Every replica of a segment holds the
// same containers in the same order: the same column headers (a coded
// column's one-byte codes exist once), hashes and zone maps. Each replica's
// container is its own header: its own start epoch and delete vector. A
// committed DELETE marks every replica alike; a rolled-back one leaves every
// replica's marks as they were; and a mark made through one replica's store
// shows in no other.
func TestReplicasShareContainerParts(t *testing.T) {
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	const ddl = "(id INTEGER, small INTEGER, x FLOAT)"
	s.MustExecute("CREATE TABLE k1 " + ddl + " SEGMENTED BY HASH(id) ALL NODES KSAFE 1")
	s.MustExecute("CREATE TABLE k2 " + ddl + " SEGMENTED BY HASH(id) ALL NODES KSAFE 2")
	s.MustExecute("CREATE TABLE rep " + ddl + " UNSEGMENTED ALL NODES")
	const n = 18000 // ~6 000 rows a segment: every share is cut
	var csv strings.Builder
	for i := range n {
		fmt.Fprintf(&csv, "%d,%d,%d.5\n", i, i%100, i)
	}

	for _, table := range []string{"k1", "k2", "rep"} {
		t.Run(table, func(t *testing.T) {
			res, err := s.CopyFrom("COPY "+table+" FROM STDIN FORMAT CSV DIRECT", strings.NewReader(csv.String()))
			if err != nil {
				t.Fatal(err)
			}
			loaded := res.Epoch
			tbl, ok := c.cat.Table(table)
			if !ok {
				t.Fatalf("no table %s", table)
			}
			type state struct {
				start uint64
				del   []uint64
			}
			// marks returns every replica's containers' committed views, per
			// segment and replica, in order.
			marks := func() [][][]state {
				var out [][][]state
				for _, seg := range tbl.Segs(0) {
					var reps [][]state
					for _, rep := range tbl.Replicas(seg) {
						var conts []state
						for _, ct := range rep.Store.Containers() {
							start, del := ct.Committed(nil)
							conts = append(conts, state{start, del})
						}
						reps = append(reps, conts)
					}
					out = append(out, reps)
				}
				return out
			}

			for _, seg := range tbl.Segs(0) {
				reps := tbl.Replicas(seg)
				if len(reps) < 2 {
					t.Fatalf("segment %d has %d replicas", seg, len(reps))
				}
				first := reps[0].Store.Containers()
				if len(first) < 2 {
					t.Fatalf("segment %d: %d containers, want its share cut at local segments", seg, len(first))
				}
				for r, rep := range reps[1:] {
					conts := rep.Store.Containers()
					if len(conts) != len(first) {
						t.Fatalf("segment %d: replica %d holds %d containers, the primary %d", seg, r+1, len(conts), len(first))
					}
					for k, ct := range conts {
						want := first[k]
						_, wantCodes := want.Cols[1].(*storage.Int64Column).Codes()
						_, codes := ct.Cols[1].(*storage.Int64Column).Codes()
						if wantCodes == nil || codes == nil || &codes[0] != &wantCodes[0] {
							t.Fatalf("segment %d replica %d container %d: codes at %p, the primary's at %p: built twice", seg, r+1, k, codes, wantCodes)
						}
						for j := range ct.Cols {
							if ct.Cols[j] != want.Cols[j] {
								t.Fatalf("segment %d replica %d container %d: column %d is a header of its own", seg, r+1, k, j)
							}
						}
						if &ct.Hashes[0] != &want.Hashes[0] || &ct.Stats()[0] != &want.Stats()[0] {
							t.Fatalf("segment %d replica %d container %d: hashes or zone maps built twice", seg, r+1, k)
						}
						if ct == want {
							t.Fatalf("segment %d replica %d container %d: the primary's container itself, not a header", seg, r+1, k)
						}
						if ct.StartEpoch() != loaded || want.StartEpoch() != loaded {
							t.Fatalf("segment %d replica %d container %d: start epochs %d and %d, want %d", seg, r+1, k, ct.StartEpoch(), want.StartEpoch(), loaded)
						}
					}
				}
			}

			// A committed DELETE marks every replica alike.
			if res := s.MustExecute("DELETE FROM " + table + " WHERE small < 10"); res.RowsAffected != n/10 {
				t.Fatalf("DELETE removed %d rows, want %d", res.RowsAffected, n/10)
			}
			committed := marks()
			for seg, reps := range committed {
				for r := range reps {
					for k, st := range reps[r] {
						marked := 0
						for _, d := range st.del {
							if d != 0 {
								marked++
							}
						}
						if marked == 0 || fmt.Sprint(st) != fmt.Sprint(reps[0][k]) {
							t.Fatalf("segment %d replica %d container %d: %d rows marked, marks differ from the primary's: %v", seg, r, k, marked, fmt.Sprint(st) != fmt.Sprint(reps[0][k]))
						}
					}
				}
			}

			// A rolled-back DELETE leaves every replica's marks as they were.
			for _, q := range []string{"BEGIN", "DELETE FROM " + table + " WHERE small >= 50", "ROLLBACK"} {
				s.MustExecute(q)
			}
			if fmt.Sprint(marks()) != fmt.Sprint(committed) {
				t.Fatal("a rolled-back DELETE changed a replica's marks")
			}

			// A mark made through one replica's store shows in no other.
			seg := tbl.Segs(0)[0]
			reps := tbl.Replicas(seg)
			vis := storage.Visibility{Epoch: c.LastEpoch(), Tag: storage.ProvisionalBase + 1}
			before := make([]int, len(reps))
			for r, rep := range reps {
				before[r] = rep.Store.CountVisible(vis, fullRing())
			}
			var merr error
			if err := reps[0].Store.ScanBatches(vis, fullRing(), func(b *storage.Batch) bool {
				_, merr = reps[0].Store.MarkDeleted(b, vis.Tag)
				return false
			}); err != nil || merr != nil {
				t.Fatal(err, merr)
			}
			for r, rep := range reps {
				got := rep.Store.CountVisible(vis, fullRing())
				if (r == 0) == (got == before[r]) {
					t.Fatalf("replica %d sees %d rows after a mark through replica 0, %d before", r, got, before[r])
				}
			}
			reps[0].Store.ClearDeletes(vis.Tag)
			if fmt.Sprint(marks()) != fmt.Sprint(committed) {
				t.Fatal("clearing a mark made through one replica changed the marks")
			}
		})
	}
}
