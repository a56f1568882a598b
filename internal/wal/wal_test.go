package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func openT(t *testing.T, path string) *Log {
	t.Helper()
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := openT(t, path)
	recs := []Record{
		{Type: RecInsert, Tag: 100, Table: "t", Direct: true, Rows: []byte("rows-a")},
		{Type: RecDelete, Tag: 100, Epoch: 7, Table: "t", Rows: []byte("rows-b")},
		{Type: RecDDL, Op: 3, DDL: []byte(`{"name":"t"}`)},
		{Type: RecCommit, Tag: 100, Epoch: 8},
		{Type: RecAbort, Tag: 101},
		{Type: RecCheckpoint, Epoch: 8},
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i, want := range recs {
		g := got[i]
		if g.Type != want.Type || g.Tag != want.Tag || g.Epoch != want.Epoch ||
			g.Table != want.Table || g.Direct != want.Direct || g.Op != want.Op ||
			string(g.Rows) != string(want.Rows) || string(g.DDL) != string(want.DDL) {
			t.Errorf("record %d: got %+v, want %+v", i, g, want)
		}
	}
}

func TestReopenAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := openT(t, path)
	if err := l.Append(Record{Type: RecInsert, Tag: 1, Table: "a"}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l = openT(t, path)
	if err := l.Append(Record{Type: RecCommit, Tag: 1, Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Table != "a" || got[1].Type != RecCommit {
		t.Fatalf("reopen lost records: %+v", got)
	}
}

// Framing itself — torn tails at every position, CRC flips, oversized length
// prefixes, missing files — is tested once, in internal/framelog; the tests
// here cover what the WAL adds on top.

// TestTornHeaderIsRewritten: a log file shorter than its magic (a crash
// between create and the first flush) reopens as an empty log whose appends
// are readable on the next open.
func TestTornHeaderIsRewritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, []byte("VWA"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := Recover(path); err != nil || len(got) != 0 {
		t.Fatalf("3-byte log: %v, %+v", err, got)
	}
	l := openT(t, path)
	if err := l.LogCommit(7, 2); err != nil {
		t.Fatal(err)
	}
	l.Close()
	got, err := Recover(path)
	if err != nil || len(got) != 1 || got[0].Tag != 7 {
		t.Fatalf("after reopen: %v, %+v", err, got)
	}
}

// The payload bound (Append refuses what the scan would drop) is tested
// once, in internal/framelog, with a small Format.

func TestFailAfterRecordsTearsAndPoisons(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l := openT(t, path)
	l.FailAfterRecords(2)
	if err := l.Append(Record{Type: RecInsert, Tag: 1, Table: "t"}); err != nil {
		t.Fatal(err)
	}
	if err := l.LogCommit(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Type: RecInsert, Tag: 2, Table: "t"}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("third append: got %v, want ErrCrashed", err)
	}
	// Every later operation fails too.
	if err := l.LogCommit(2, 3); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash commit: got %v, want ErrCrashed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash sync: got %v, want ErrCrashed", err)
	}
	// The survivors are the two pre-crash records; the torn frame is dropped.
	got, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Type != RecCommit {
		t.Fatalf("post-crash read: %+v", got)
	}
}

func TestSealCarriesPendingAndForwards(t *testing.T) {
	dir := t.TempDir()
	oldL := openT(t, filepath.Join(dir, "wal-1.log"))
	// Tag 10 commits (not pending), tag 11 aborts (not pending), tags 12/13
	// stay open and must carry over in original order.
	oldL.Append(Record{Type: RecInsert, Tag: 10, Table: "t"})
	oldL.LogCommit(10, 2)
	oldL.Append(Record{Type: RecInsert, Tag: 11, Table: "t"})
	oldL.LogAbort(11)
	oldL.Append(Record{Type: RecInsert, Tag: 12, Table: "t", Rows: []byte("x")})
	oldL.Append(Record{Type: RecDelete, Tag: 13, Epoch: 2, Table: "t", Rows: []byte("y")})
	oldL.Append(Record{Type: RecInsert, Tag: 12, Table: "t", Rows: []byte("z")})

	newPath := filepath.Join(dir, "wal-2.log")
	newL := openT(t, newPath)
	newL.Append(Record{Type: RecCheckpoint, Epoch: 2})
	if err := oldL.Seal(newL, published); err != nil {
		t.Fatal(err)
	}
	// A straggler append against the sealed log lands in the successor.
	if err := oldL.LogCommit(12, 3); err != nil {
		t.Fatal(err)
	}
	newL.Sync()
	newL.Close()

	got, err := ReadAll(newPath)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, r := range got {
		kinds = append(kinds, r.Type.String()+":"+string(r.Rows))
	}
	want := []string{"CHECKPOINT:", "INSERT:x", "DELETE:y", "INSERT:z", "COMMIT:"}
	if len(kinds) != len(want) {
		t.Fatalf("sealed log has %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("sealed log has %v, want %v", kinds, want)
		}
	}
	if got[4].Tag != 12 || got[4].Epoch != 3 {
		t.Fatalf("forwarded commit mangled: %+v", got[4])
	}
}

// published is a Seal publish step that always succeeds.
func published() error { return nil }

// TestSealFailedPublishKeepsLogLive: when the step that makes the successor
// the log to recover from fails, the log is not sealed — later records land
// in it, its open transactions stay pending — and a later seal succeeds.
func TestSealFailedPublishKeepsLogLive(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "wal-1.log")
	oldL := openT(t, oldPath)
	oldL.Append(Record{Type: RecInsert, Tag: 12, Table: "t", Rows: []byte("x")})
	failed := openT(t, filepath.Join(dir, "wal-2.log"))
	boom := errors.New("manifest unwritable")
	if err := oldL.Seal(failed, func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Seal with a failing publish = %v, want %v", err, boom)
	}
	failed.Close()
	if err := oldL.LogCommit(12, 3); err != nil {
		t.Fatal(err)
	}
	oldL.Append(Record{Type: RecInsert, Tag: 13, Table: "t", Rows: []byte("y")})
	got, err := ReadAll(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Type != RecCommit || got[1].Tag != 12 {
		t.Fatalf("log after a failed seal holds %+v, want the insert and its commit", got)
	}

	nextPath := filepath.Join(dir, "wal-3.log")
	next := openT(t, nextPath)
	if err := oldL.Seal(next, published); err != nil {
		t.Fatalf("second seal: %v", err)
	}
	next.Close()
	carried, err := ReadAll(nextPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(carried) != 1 || carried[0].Tag != 13 {
		t.Fatalf("second seal carried %+v, want tag 13's insert alone", carried)
	}
}

func TestPendingClearedOnCommitAndAbort(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, filepath.Join(dir, "wal-1.log"))
	l.Append(Record{Type: RecInsert, Tag: 20, Table: "t"})
	l.Append(Record{Type: RecInsert, Tag: 21, Table: "t"})
	l.LogCommit(20, 2)
	l.LogAbort(21)
	next := openT(t, filepath.Join(dir, "wal-2.log"))
	if err := l.Seal(next, published); err != nil {
		t.Fatal(err)
	}
	next.Sync()
	next.Close()
	got, err := ReadAll(filepath.Join(dir, "wal-2.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("finished transactions carried over: %+v", got)
	}
}
