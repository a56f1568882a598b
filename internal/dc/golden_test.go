package dc

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The golden spool was written by commit 3eec142 (before framing moved into
// internal/framelog) with UPDATE_GOLDEN=1: one component, a 4 KB policy (1 KB
// segments), twelve 100-byte records — nine close seg 1, three land in seg 2
// — and a thirteenth torn mid-frame.
const goldenDir = "testdata/golden-3eec142"

const goldenRecords = 12

func goldenRecord(i int) Record {
	return Record{
		Time:    time.Unix(1700000000, 0).Add(time.Duration(i) * time.Second),
		Payload: bytes.Repeat([]byte{byte('a' + i)}, 100),
	}
}

func writeGoldenSpool(t *testing.T, dir string) {
	t.Helper()
	s := openT(t, dir)
	if err := s.SetPolicy("query_requests", Policy{MaxKB: 4}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < goldenRecords; i++ {
		if err := s.Append("query_requests", goldenRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.FailAfterRecords(0)
	if err := s.Append("query_requests", goldenRecord(goldenRecords)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("tearing append: %v", err)
	}
	s.Close()
}

var goldenFiles = []string{
	"policies.json",
	"query_requests/seg-00000001.dc",
	"query_requests/seg-00000002.dc",
}

func TestGoldenFormat(t *testing.T) {
	if os.Getenv("UPDATE_GOLDEN") != "" {
		os.RemoveAll(goldenDir)
		writeGoldenSpool(t, goldenDir)
	}
	// Rewriting the same appends reproduces every file byte for byte.
	fresh := t.TempDir()
	writeGoldenSpool(t, fresh)
	for _, name := range goldenFiles {
		want, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(fresh, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: rewritten file differs from the golden one (%d vs %d bytes)", name, len(got), len(want))
		}
	}
	// Opening a copy of the golden spool (Open repairs the torn tail in
	// place) reads the twelve records and the persisted policy.
	work := t.TempDir()
	for _, name := range goldenFiles {
		data, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		os.MkdirAll(filepath.Dir(filepath.Join(work, name)), 0o755)
		if err := os.WriteFile(filepath.Join(work, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := openT(t, work)
	defer s.Close()
	recs, err := s.Records("query_requests")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != goldenRecords {
		t.Fatalf("golden spool reads %d records, want %d", len(recs), goldenRecords)
	}
	for i, r := range recs {
		want := goldenRecord(i)
		if !r.Time.Equal(want.Time) || !bytes.Equal(r.Payload, want.Payload) {
			t.Fatalf("record %d = %v %q", i, r.Time, r.Payload)
		}
	}
	if pol, _ := s.GetPolicy("query_requests"); pol != (Policy{MaxKB: 4}) {
		t.Fatalf("golden policy = %+v", pol)
	}
	st := s.Stats()[0]
	if st.Segments != 2 || st.Records != goldenRecords {
		t.Fatalf("golden stats = %+v", st)
	}
	seg2, _ := os.ReadFile(filepath.Join(work, goldenFiles[2]))
	want2, _ := os.ReadFile(filepath.Join(goldenDir, goldenFiles[2]))
	if len(seg2) >= len(want2) || !bytes.Equal(seg2, want2[:len(seg2)]) {
		t.Fatalf("repair left %d bytes of %d, not a proper prefix", len(seg2), len(want2))
	}
}
