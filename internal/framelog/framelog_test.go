package framelog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var testFormat = Format{Magic: "VTESTLOG", MaxPayload: 64}

// collect scans data and returns the accepted payloads (copied) and valid.
func collect(t testing.TB, fm Format, data []byte) ([][]byte, int) {
	t.Helper()
	var out [][]byte
	valid, err := fm.Scan(data, func(p []byte) bool {
		out = append(out, append([]byte(nil), p...))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, valid
}

// writeLog appends payloads to a fresh log at path and returns the file's
// bytes plus the offset at which each frame ends.
func writeLog(t *testing.T, path string, bufSize int, payloads ...string) ([]byte, []int) {
	t.Helper()
	w, err := testFormat.OpenAppend(path, bufSize, &Tear{})
	if err != nil {
		t.Fatal(err)
	}
	ends := []int{len(testFormat.Magic)}
	for _, p := range payloads {
		n, err := w.Append([]byte(p))
		if err != nil {
			t.Fatal(err)
		}
		if n != 8+len(p) {
			t.Fatalf("Append(%q) reported %d bytes, want %d", p, n, 8+len(p))
		}
		ends = append(ends, ends[len(ends)-1]+n)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != ends[len(ends)-1] {
		t.Fatalf("file is %d bytes, frames end at %d", len(data), ends[len(ends)-1])
	}
	return data, ends
}

func TestRoundTrip(t *testing.T) {
	for _, bufSize := range []int{0, 1 << 12} {
		path := filepath.Join(t.TempDir(), "log")
		data, _ := writeLog(t, path, bufSize, "alpha", "", "gamma")
		got, valid := collect(t, testFormat, data)
		if valid != len(data) || len(got) != 3 || string(got[0]) != "alpha" || len(got[1]) != 0 || string(got[2]) != "gamma" {
			t.Fatalf("bufSize %d: scanned %q, valid %d of %d", bufSize, got, valid, len(data))
		}
		// Reopening appends after the existing frames; a multi-part payload
		// is one frame.
		w, err := testFormat.OpenAppend(path, bufSize, &Tear{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append([]byte("de"), []byte("lta")); err != nil {
			t.Fatal(err)
		}
		if bufSize == 0 {
			// Write-through: on the descriptor before Append returns.
			if now, _ := os.ReadFile(path); len(now) != len(data)+8+5 {
				t.Fatalf("write-through append not on the file: %d bytes", len(now))
			}
		}
		w.Close()
		data, _ = os.ReadFile(path)
		if got, _ = collect(t, testFormat, data); len(got) != 4 || string(got[3]) != "delta" {
			t.Fatalf("after reopen: %q", got)
		}
	}
}

// TestTornTailEveryPosition cuts the file at every byte inside the last
// frame: the scan keeps exactly the frames before it, a repairing scan
// truncates to them, and a reopened log appends readably after the cut.
func TestTornTailEveryPosition(t *testing.T) {
	dir := t.TempDir()
	data, ends := writeLog(t, filepath.Join(dir, "full"), 0, "one", "two", "three")
	lastStart := ends[len(ends)-2]
	for cut := lastStart; cut < len(data); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d", cut))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var n int
		valid, err := testFormat.ScanFile(path, true, func([]byte) bool { n++; return true })
		if err != nil || n != 2 || valid != int64(lastStart) {
			t.Fatalf("cut %d: %d frames, valid %d, err %v; want 2 frames, valid %d", cut, n, valid, err, lastStart)
		}
		if st, _ := os.Stat(path); st.Size() != int64(lastStart) {
			t.Fatalf("cut %d: repair left %d bytes, want %d", cut, st.Size(), lastStart)
		}
		w, err := testFormat.OpenAppend(path, 0, &Tear{})
		if err != nil {
			t.Fatal(err)
		}
		w.Append([]byte("after"))
		w.Close()
		now, _ := os.ReadFile(path)
		if got, _ := collect(t, testFormat, now); len(got) != 3 || string(got[2]) != "after" {
			t.Fatalf("cut %d: append after repair reads %q", cut, got)
		}
	}
}

func TestCorruptionEndsTheLog(t *testing.T) {
	data, ends := writeLog(t, filepath.Join(t.TempDir(), "log"), 0, "one", "two", "three")
	// A flipped payload byte in the middle frame: the prefix before it
	// survives, everything after is dropped.
	flipped := append([]byte(nil), data...)
	flipped[ends[1]+8] ^= 0xff
	if got, valid := collect(t, testFormat, flipped); len(got) != 1 || valid != ends[1] {
		t.Fatalf("CRC flip: %d frames, valid %d; want 1, %d", len(got), valid, ends[1])
	}
	// A length prefix past the bound is a torn tail, not an allocation.
	huge := append([]byte(nil), data[:ends[1]]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0)
	if got, valid := collect(t, testFormat, huge); len(got) != 1 || valid != ends[1] {
		t.Fatalf("oversized prefix: %d frames, valid %d", len(got), valid)
	}
	// A payload the client rejects ends the log too.
	n := 0
	valid, _ := testFormat.Scan(data, func(p []byte) bool { n++; return string(p) != "two" })
	if valid != ends[1] {
		t.Fatalf("rejected payload: valid %d, want %d", valid, ends[1])
	}
	if _, err := testFormat.Scan([]byte("NOTMAGIC........"), nil); err == nil {
		t.Fatal("bad magic scanned without error")
	}
	if v, err := testFormat.ScanFile(filepath.Join(t.TempDir(), "absent"), true, nil); v != 0 || err != nil {
		t.Fatalf("missing file: valid %d, err %v", v, err)
	}
}

// TestShortHeaderIsRewritten: a crash between creating a log file and writing
// its magic leaves fewer than 8 bytes. Reopening must lay the magic down
// again, or every frame appended afterwards sits in a header-less file that
// the next open refuses.
func TestShortHeaderIsRewritten(t *testing.T) {
	for _, bufSize := range []int{0, 1 << 12} {
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, []byte("VTE"), 0o644); err != nil {
			t.Fatal(err)
		}
		if got, valid := collect(t, testFormat, []byte("VTE")); len(got) != 0 || valid != 0 {
			t.Fatalf("short header scanned to %d frames, valid %d", len(got), valid)
		}
		w, err := testFormat.OpenAppend(path, bufSize, &Tear{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append([]byte("kept")); err != nil {
			t.Fatal(err)
		}
		w.Close()
		data, _ := os.ReadFile(path)
		got, valid := collect(t, testFormat, data)
		if len(got) != 1 || string(got[0]) != "kept" || valid != len(data) {
			t.Fatalf("bufSize %d: after reopening a 3-byte file: %q (valid %d of %d)", bufSize, got, valid, len(data))
		}
	}
}

// TestAppendRefusesWhatScanWouldDrop: a record past the bound must fail at
// Append — acknowledged, it would end every later scan at its frame and take
// all later records with it.
func TestAppendRefusesWhatScanWouldDrop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	w, err := testFormat.OpenAppend(path, 0, &Tear{})
	if err != nil {
		t.Fatal(err)
	}
	w.Append([]byte("before"))
	if _, err := w.Append(make([]byte, 60), make([]byte, 5)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("65-byte payload under a 64-byte bound: %v", err)
	}
	if _, err := w.Append(make([]byte, 64)); err != nil {
		t.Fatalf("payload at the bound: %v", err)
	}
	w.Append([]byte("after"))
	w.Close()
	data, _ := os.ReadFile(path)
	if got, valid := collect(t, testFormat, data); len(got) != 3 || string(got[2]) != "after" || valid != len(data) {
		t.Fatalf("log around a refused record reads %d frames, valid %d of %d", len(got), valid, len(data))
	}
}

func TestTearThenRecover(t *testing.T) {
	for _, bufSize := range []int{0, 1 << 12} {
		path := filepath.Join(t.TempDir(), "log")
		var tear Tear
		w, err := testFormat.OpenAppend(path, bufSize, &tear)
		if err != nil {
			t.Fatal(err)
		}
		tear.FailAfter(2)
		for i := 0; i < 2; i++ {
			if _, err := w.Append([]byte("acked")); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.Append([]byte("torn-frame")); !errors.Is(err, ErrCrashed) {
			t.Fatalf("third append: %v", err)
		}
		// Sticky: every later operation reports the crash.
		if _, err := w.Append([]byte("x")); !errors.Is(err, ErrCrashed) {
			t.Fatalf("append after crash: %v", err)
		}
		if err := w.Sync(); !errors.Is(err, ErrCrashed) || !errors.Is(tear.Err(), ErrCrashed) {
			t.Fatalf("sync after crash: %v / %v", err, tear.Err())
		}
		w.Close()
		// Half of the 18-byte frame reached the file.
		data, _ := os.ReadFile(path)
		if want := 8 + 2*13 + 9; len(data) != want {
			t.Fatalf("bufSize %d: torn file is %d bytes, want %d", bufSize, len(data), want)
		}
		n := 0
		valid, err := testFormat.ScanFile(path, true, func([]byte) bool { n++; return true })
		if err != nil || n != 2 || valid != 8+2*13 {
			t.Fatalf("recover: %d frames, valid %d, err %v", n, valid, err)
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.json")
	for _, content := range []string{"first", "second, longer"} {
		if err := WriteFileAtomic(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); string(got) != content {
			t.Fatalf("read %q, want %q", got, content)
		}
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	if err := WriteFileAtomic(filepath.Join(t.TempDir(), "no-such-dir", "f"), nil); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

// FuzzScan: a scan of arbitrary bytes never panics, never claims more than it
// was given, and is stable — scanning the valid prefix again yields the same
// payloads and the same length.
func FuzzScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("VTESTLOG"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var first [][]byte
		valid, err := testFormat.Scan(data, func(p []byte) bool {
			first = append(first, append([]byte(nil), p...))
			return true
		})
		if err != nil {
			return
		}
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid %d of %d bytes", valid, len(data))
		}
		again, valid2 := collect(t, testFormat, data[:valid])
		if valid2 != valid || len(again) != len(first) {
			t.Fatalf("rescan of the valid prefix: %d frames/%d bytes, first scan %d/%d", len(again), valid2, len(first), valid)
		}
		for i := range first {
			if !bytes.Equal(first[i], again[i]) {
				t.Fatalf("frame %d differs on rescan", i)
			}
		}
	})
}
