package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The golden log was written by commit 3eec142 (before framing moved into
// internal/framelog) with UPDATE_GOLDEN=1: the format must read back to the
// same records and be reproduced byte for byte by the same appends.
const goldenWAL = "testdata/golden-3eec142.wal"

// goldenRecords is the intact content of the golden log: tag 10 commits, tag
// 11 aborts, tag 12 is still open when the log ends in a torn frame.
var goldenRecords = []Record{
	{Type: RecCheckpoint, Epoch: 1},
	{Type: RecDDL, Op: 1, DDL: []byte(`{"name":"t"}`)},
	{Type: RecInsert, Tag: 10, Table: "t", Direct: true, Rows: []byte("rows-10a")},
	{Type: RecInsert, Tag: 11, Table: "t", Rows: []byte("rows-11")},
	{Type: RecDelete, Tag: 10, Epoch: 1, Table: "t", Rows: []byte("rows-10b")},
	{Type: RecCommit, Tag: 10, Epoch: 2},
	{Type: RecAbort, Tag: 11},
	{Type: RecInsert, Tag: 12, Table: "t", Rows: bytes.Repeat([]byte{0xab}, 300)},
}

func writeGoldenWAL(t *testing.T, path string) {
	t.Helper()
	l := openT(t, path)
	for _, r := range goldenRecords {
		var err error
		switch r.Type {
		case RecCommit:
			err = l.LogCommit(r.Tag, r.Epoch)
		case RecAbort:
			err = l.LogAbort(r.Tag)
		default:
			err = l.Append(r)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	l.FailAfterRecords(0)
	if err := l.Append(Record{Type: RecInsert, Tag: 12, Table: "t", Rows: []byte("torn away")}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("tearing append: %v", err)
	}
	l.Close()
}

func TestGoldenFormat(t *testing.T) {
	if os.Getenv("UPDATE_GOLDEN") != "" {
		os.Remove(goldenWAL)
		writeGoldenWAL(t, goldenWAL)
	}
	want, err := os.ReadFile(goldenWAL)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(goldenWAL)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, goldenRecords) {
		t.Fatalf("golden log reads as %+v", got)
	}
	path := filepath.Join(t.TempDir(), "wal.log")
	writeGoldenWAL(t, path)
	rewritten, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rewritten, want) {
		t.Fatalf("rewritten log differs from the golden one (%d vs %d bytes)", len(rewritten), len(want))
	}
	// Recover cuts exactly the torn frame: what remains is a prefix of the
	// golden bytes that still reads to the same records.
	if got, err = Recover(path); err != nil || !reflect.DeepEqual(got, goldenRecords) {
		t.Fatalf("Recover: %v, %+v", err, got)
	}
	cut, _ := os.ReadFile(path)
	if len(cut) >= len(want) || !bytes.Equal(cut, want[:len(cut)]) {
		t.Fatalf("Recover left %d bytes of %d, not a proper prefix", len(cut), len(want))
	}
}
