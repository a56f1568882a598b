// Package framelog is the one durable-append primitive under the write-ahead
// log and the data collector: a file that starts with an 8-byte magic and
// continues with [u32 len][u32 crc32][payload] frames, little-endian, the CRC
// covering the payload. A reader keeps the longest prefix of intact frames —
// a short header, a short or oversized payload, a CRC mismatch or a payload
// the client rejects ends the log there, the signature of a crash mid-append
// — and a repairing scan truncates the file back to it. The package also owns
// the crash simulation both logs are tested with and the atomic file swap.
package framelog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// ErrCrashed is returned by every operation on a log after its Tear fired.
var ErrCrashed = errors.New("framelog: simulated crash")

// ErrTooLarge is returned by Append for a record the reader would refuse: a
// frame past the bound would be acknowledged and then end every later scan.
var ErrTooLarge = errors.New("framelog: record exceeds the log's payload bound")

// Format is one log's framing: its file magic and the payload bound the
// writer and the reader both enforce.
type Format struct {
	Magic      string
	MaxPayload int
}

// Scan calls accept for the payload of every intact frame of data, in order,
// and returns the length of the valid prefix. accept returning false rejects
// the frame as torn. Payloads alias data. Data shorter than the magic is an
// empty log (valid 0); any other start is an error.
func (fm Format) Scan(data []byte, accept func(payload []byte) bool) (valid int, err error) {
	if len(data) < len(fm.Magic) {
		return 0, nil
	}
	if string(data[:len(fm.Magic)]) != fm.Magic {
		return 0, fmt.Errorf("framelog: bad header, want %q", fm.Magic)
	}
	valid = len(fm.Magic)
	for len(data)-valid >= 8 {
		n := int64(binary.LittleEndian.Uint32(data[valid:])) // int64: no wrap on 32-bit
		sum := binary.LittleEndian.Uint32(data[valid+4:])
		if n > int64(fm.MaxPayload) || int64(len(data)-valid-8) < n {
			break
		}
		payload := data[valid+8 : valid+8+int(n)]
		if crc32.ChecksumIEEE(payload) != sum || !accept(payload) {
			break
		}
		valid += 8 + int(n)
	}
	return valid, nil
}

// ScanFile scans the log at path; a missing file is an empty log. With repair
// set a torn tail is truncated away, so an append after reopening lands
// behind intact frames instead of garbage.
func (fm Format) ScanFile(path string, repair bool, accept func(payload []byte) bool) (valid int64, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	n, err := fm.Scan(data, accept)
	if err != nil {
		return 0, fmt.Errorf("%w in %s", err, path)
	}
	if repair && n < len(data) {
		err = os.Truncate(path, int64(n))
	}
	return int64(n), err
}

// Tear is the kill -9 simulation, shared by every Writer of one log (a WAL
// file, or all segments of a spool): once armed, the append after n more
// successful ones writes half its frame and every later operation reports
// ErrCrashed. It also counts the log's fsyncs, for the tests that bound them.
type Tear struct {
	armed, crashed bool
	left           int
	Syncs          int
}

// FailAfter arms the tear to fire on the append after n more successful ones.
func (t *Tear) FailAfter(n int) { t.armed, t.left = true, n }

// Err returns ErrCrashed once the tear has fired.
func (t *Tear) Err() error {
	if t.crashed {
		return ErrCrashed
	}
	return nil
}

// Writer appends frames to one log file. It is not safe for concurrent use:
// both clients already serialize appends under their own lock, which also
// guards the Tear.
type Writer struct {
	f    *os.File
	w    io.Writer     // f, or buf
	buf  *bufio.Writer // nil when appends go straight to the descriptor
	fm   Format
	tear *Tear
}

// OpenAppend opens (or creates) the log at path for appending. A file holding
// less than a magic — new, or torn by a crash before its header landed — is
// reset to just the magic. bufSize > 0 buffers appends until Flush or Sync;
// 0 hands each frame to the descriptor before Append returns.
func (fm Format) OpenAppend(path string, bufSize int, tear *Tear) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f, w: f, fm: fm, tear: tear}
	if bufSize > 0 {
		w.buf = bufio.NewWriterSize(f, bufSize)
		w.w = w.buf
	}
	st, err := f.Stat()
	if err == nil && st.Size() < int64(len(fm.Magic)) {
		if err = f.Truncate(0); err == nil {
			_, err = io.WriteString(w.w, fm.Magic)
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// Append writes one frame whose payload is the concatenation of parts and
// returns the frame's size on disk. The frame is never assembled for a
// buffered writer: its header and then each part go to the buffer as they
// are, the checksum running over the parts, so a part larger than the buffer
// passes straight to the descriptor. An unbuffered writer lays the frame out
// once and issues it in one write.
func (w *Writer) Append(parts ...[]byte) (int, error) {
	if w.tear.crashed {
		return 0, ErrCrashed
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n > w.fm.MaxPayload {
		return 0, fmt.Errorf("%w: %d > %d bytes", ErrTooLarge, n, w.fm.MaxPayload)
	}
	var hdr [8]byte
	var sum uint32
	for _, p := range parts {
		sum = crc32.Update(sum, crc32.IEEETable, p)
	}
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	binary.LittleEndian.PutUint32(hdr[4:8], sum)
	if w.tear.armed && w.tear.left == 0 {
		// Simulated power cut: half the frame reaches the file, then the
		// world ends.
		fr := frame(hdr, parts, n)
		w.w.Write(fr[:len(fr)/2])
		w.Flush()
		w.tear.crashed = true
		return 0, ErrCrashed
	}
	if w.tear.armed {
		w.tear.left--
	}
	if w.buf == nil {
		if _, err := w.f.Write(frame(hdr, parts, n)); err != nil {
			return 0, err
		}
		return 8 + n, nil
	}
	if _, err := w.buf.Write(hdr[:]); err != nil {
		return 0, err
	}
	for _, p := range parts {
		if _, err := w.buf.Write(p); err != nil {
			return 0, err
		}
	}
	return 8 + n, nil
}

// frame lays out the frame of header hdr over the n payload bytes of parts.
func frame(hdr [8]byte, parts [][]byte, n int) []byte {
	fr := append(make([]byte, 0, 8+n), hdr[:]...)
	for _, p := range parts {
		fr = append(fr, p...)
	}
	return fr
}

// Flush hands buffered frames to the descriptor.
func (w *Writer) Flush() error {
	if w.buf == nil {
		return nil
	}
	return w.buf.Flush()
}

// Sync flushes and fsyncs.
func (w *Writer) Sync() error {
	if w.tear.crashed {
		return ErrCrashed
	}
	if err := w.Flush(); err != nil {
		return err
	}
	w.tear.Syncs++
	return w.f.Sync()
}

// Close flushes (unless the log crashed: a dead process flushes nothing) and
// closes the file, without fsync.
func (w *Writer) Close() error {
	if !w.tear.crashed {
		w.Flush()
	}
	return w.f.Close()
}

// WriteFileAtomic replaces path with data: temp file in the same directory,
// fsync, rename, directory fsync (best-effort: some filesystems reject it).
// A crash at any instant leaves either the old file or the new one.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}
