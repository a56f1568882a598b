package dc

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func openT(t *testing.T, dir string, comps ...string) *Spool {
	t.Helper()
	if len(comps) == 0 {
		comps = []string{"query_requests"}
	}
	s, err := Open(dir, comps)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, "query_requests", "job_traces")
	base := time.Unix(1700000000, 12345)
	for i := 0; i < 50; i++ {
		err := s.Append("query_requests", Record{
			Time:    base.Add(time.Duration(i) * time.Second),
			Payload: []byte(fmt.Sprintf("req-%03d", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append("job_traces", Record{Payload: []byte("job-1")}); err != nil {
		t.Fatal(err)
	}
	recs, err := s.Records("query_requests")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 50 {
		t.Fatalf("got %d records, want 50", len(recs))
	}
	for i, r := range recs {
		if string(r.Payload) != fmt.Sprintf("req-%03d", i) {
			t.Fatalf("record %d payload = %q (append order lost)", i, r.Payload)
		}
		if !r.Time.Equal(base.Add(time.Duration(i) * time.Second)) {
			t.Fatalf("record %d time = %v, want %v", i, r.Time, base.Add(time.Duration(i)*time.Second))
		}
	}
	if jt, _ := s.Records("job_traces"); len(jt) != 1 || string(jt[0].Payload) != "job-1" {
		t.Fatalf("job_traces = %+v, want the one appended record", jt)
	}
	if _, err := s.Records("nope"); err == nil {
		t.Fatal("unknown component should error")
	}
	s.Close()

	// Reopen: everything is still there.
	s2 := openT(t, dir, "query_requests", "job_traces")
	defer s2.Close()
	recs, err = s2.Records("query_requests")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 50 {
		t.Fatalf("after reopen: got %d records, want 50", len(recs))
	}
}

func TestRotationAndRetentionBySize(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	// 4KB budget → 1KB segments. Each record frames to ~116 bytes, so a few
	// hundred appends force many rotations and retention drops.
	if err := s.SetPolicy("query_requests", Policy{MaxKB: 4}); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 100)
	for i := 0; i < 400; i++ {
		if err := s.Append("query_requests", Record{Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()[0]
	if st.Bytes > 4*1024+int64(len(payload))+16+int64(len(segMagic)) {
		t.Fatalf("retention did not bound size: %d bytes on disk", st.Bytes)
	}
	if st.Segments < 2 {
		t.Fatalf("expected multiple segments, got %d", st.Segments)
	}
	// Oldest segments were pruned: the surviving records are the newest ones,
	// i.e. a contiguous suffix of the appends.
	recs, err := s.Records("query_requests")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || len(recs) >= 400 {
		t.Fatalf("got %d records, want a pruned non-empty suffix of 400", len(recs))
	}
	s.Close()

	// On-disk segment files: the lowest sequence numbers must be gone.
	ents, _ := os.ReadDir(filepath.Join(dir, "query_requests"))
	var seqs []uint64
	for _, e := range ents {
		var seq uint64
		if _, err := fmt.Sscanf(e.Name(), "seg-%d.dc", &seq); err == nil {
			seqs = append(seqs, seq)
		}
	}
	if len(seqs) == 0 || seqs[0] == 1 {
		t.Fatalf("oldest-first pruning should have removed seg 1; remaining %v", seqs)
	}
}

func TestRetentionByAge(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	old := time.Now().Add(-2 * time.Hour)
	// Small segments (4KB budget → 1KB rotation) so the old records close
	// whole segments that age retention can drop.
	if err := s.SetPolicy("query_requests", Policy{MaxKB: 4}); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 200)
	for i := 0; i < 10; i++ {
		if err := s.Append("query_requests", Record{Time: old, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append("query_requests", Record{Payload: []byte("fresh")}); err != nil {
		t.Fatal(err)
	}
	before, _ := s.Records("query_requests")
	// An age policy tighter than the old records' age prunes their segments;
	// the active segment (holding "fresh") survives even if some old records
	// share it.
	if err := s.SetPolicy("query_requests", Policy{MaxKB: 1 << 20, MaxAge: time.Hour}); err != nil {
		t.Fatal(err)
	}
	after, err := s.Records("query_requests")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(before) {
		t.Fatalf("age retention pruned nothing: %d -> %d records", len(before), len(after))
	}
	if string(after[len(after)-1].Payload) != "fresh" {
		t.Fatal("newest record lost to age retention")
	}
	s.Close()
}

func TestPolicyPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	want := Policy{MaxKB: 17, MaxAge: 90 * time.Minute}
	if err := s.SetPolicy("query_requests", want); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openT(t, dir)
	defer s2.Close()
	got, ok := s2.GetPolicy("query_requests")
	if !ok || got != want {
		t.Fatalf("reopened policy = %+v/%v, want %+v", got, ok, want)
	}
}

func TestCrashSimTornTailRecovery(t *testing.T) {
	// Sweep the crash point across a spool of appends: every acknowledged
	// record must be readable after reopen, and the torn frame must vanish.
	for fail := 0; fail <= 12; fail += 3 {
		t.Run(fmt.Sprintf("fail=%d", fail), func(t *testing.T) {
			dir := t.TempDir()
			s := openT(t, dir)
			s.FailAfterRecords(fail)
			var acked int
			var crashed bool
			for i := 0; i < 20; i++ {
				err := s.Append("query_requests", Record{Payload: []byte(fmt.Sprintf("r%02d", i))})
				if err == nil {
					acked++
					continue
				}
				if !errors.Is(err, ErrCrashed) {
					t.Fatal(err)
				}
				crashed = true
				break
			}
			if !crashed || acked != fail {
				t.Fatalf("crashed=%v acked=%d, want crash after %d acks", crashed, acked, fail)
			}
			// Post-crash, every operation reports the crash.
			if _, err := s.Records("query_requests"); !errors.Is(err, ErrCrashed) {
				t.Fatalf("Records after crash = %v, want ErrCrashed", err)
			}
			if err := s.Sync(); !errors.Is(err, ErrCrashed) {
				t.Fatalf("Sync after crash = %v, want ErrCrashed", err)
			}

			s2 := openT(t, dir)
			defer s2.Close()
			recs, err := s2.Records("query_requests")
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != acked {
				t.Fatalf("recovered %d records, want the %d acked before the crash", len(recs), acked)
			}
			for i, r := range recs {
				if string(r.Payload) != fmt.Sprintf("r%02d", i) {
					t.Fatalf("recovered record %d = %q", i, r.Payload)
				}
			}
			// The reopened spool keeps working: appends land after the
			// truncated tail.
			if err := s2.Append("query_requests", Record{Payload: []byte("post")}); err != nil {
				t.Fatal(err)
			}
			recs, _ = s2.Records("query_requests")
			if len(recs) != acked+1 || string(recs[len(recs)-1].Payload) != "post" {
				t.Fatalf("post-recovery append not visible: %d records", len(recs))
			}
		})
	}
}

func TestStats(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, "b_comp", "a_comp")
	defer s.Close()
	if err := s.Append("a_comp", Record{Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if len(st) != 2 || st[0].Component != "a_comp" || st[1].Component != "b_comp" {
		t.Fatalf("stats not sorted by component: %+v", st)
	}
	if st[0].Records != 1 || st[0].Segments != 1 || st[0].Bytes <= int64(len(segMagic)) {
		t.Fatalf("a_comp stats = %+v", st[0])
	}
	if got := s.Components(); len(got) != 2 || got[0] != "a_comp" || got[1] != "b_comp" {
		t.Fatalf("Components() = %v", got)
	}
}

// Frame-level corruption (CRC flips, torn tails at every position, oversized
// length prefixes) is tested once, in internal/framelog.

// TestTornSegmentHeaderIsRewritten: a crash between creating seg-N.dc and
// writing its magic leaves a segment shorter than the magic. Reopening must
// rewrite the header; appending to a header-less file would make the open
// after that fail with "bad header" — and take the database down with it.
func TestTornSegmentHeaderIsRewritten(t *testing.T) {
	dir := t.TempDir()
	os.MkdirAll(filepath.Join(dir, "query_requests"), 0o755)
	seg := filepath.Join(dir, "query_requests", "seg-00000001.dc")
	if err := os.WriteFile(seg, []byte("VDC"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openT(t, dir)
	if err := s.Append("query_requests", Record{Payload: []byte("kept")}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats()[0]; st.Bytes != int64(len(segMagic))+8+8+4 {
		t.Fatalf("stats count %d bytes for a header plus one 4-byte record", st.Bytes)
	}
	s.Close()
	s2, err := Open(dir, []string{"query_requests"})
	if err != nil {
		t.Fatalf("reopen after appending to a repaired segment: %v", err)
	}
	defer s2.Close()
	recs, err := s2.Records("query_requests")
	if err != nil || len(recs) != 1 || string(recs[0].Payload) != "kept" {
		t.Fatalf("records after reopen: %v, %+v", err, recs)
	}
}

// TestAppendAfterCloseIsAnError: a session finishing while the cluster
// closes reaches a closed spool; it must get an error to count, not a panic.
func TestAppendAfterCloseIsAnError(t *testing.T) {
	s := openT(t, t.TempDir())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("query_requests", Record{Payload: []byte("late")}); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("append after close: %v, want os.ErrClosed", err)
	}
	if st := s.Stats()[0]; st.Records != 0 {
		t.Fatalf("stats after close: %+v", st)
	}
}

// TestFailedRotationKeepsTheOldSegment: when the next segment cannot be
// opened (here: its name is taken by a directory) the append that triggered
// the rotation reports it, and the old segment keeps taking appends until a
// later rotation succeeds — no record is lost and nothing panics.
func TestFailedRotationKeepsTheOldSegment(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()
	if err := s.SetPolicy("query_requests", Policy{MaxKB: 4}); err != nil { // 1 KB segments
		t.Fatal(err)
	}
	block := filepath.Join(dir, "query_requests", "seg-00000002.dc")
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 600)
	if err := s.Append("query_requests", Record{Payload: payload}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // crosses the 1 KB target each time: rotation is retried and fails
		if err := s.Append("query_requests", Record{Payload: payload}); err == nil {
			t.Fatal("append whose rotation failed reported no error")
		}
	}
	if st := s.Stats()[0]; st.Segments != 1 || st.Records != 3 {
		t.Fatalf("after failed rotations: %+v, want 3 records in 1 segment", st)
	}
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("query_requests", Record{Payload: payload}); err != nil {
		t.Fatalf("append once the next segment can be created: %v", err)
	}
	if st := s.Stats()[0]; st.Segments != 2 {
		t.Fatalf("rotation did not resume: %+v", st)
	}
	if recs, err := s.Records("query_requests"); err != nil || len(recs) != 4 {
		t.Fatalf("records: %v, %d of 4", err, len(recs))
	}
}
