// Package wal implements the engine's write-ahead log: an append-only file
// of length-prefixed, CRC32-framed records covering COPY/INSERT/DELETE, DDL,
// and transaction commit/abort. Commit records are fsynced before the commit
// is acknowledged, so replaying the log after a crash (redo committed
// records, discard provisional tags) reproduces exactly the last durable
// epoch. A checkpoint truncates the log by sealing it into a fresh file,
// carrying over the records of still-uncommitted transactions so an
// in-flight COPY that commits after the checkpoint stays replayable.
package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"vsfabric/internal/framelog"
)

// Type identifies a WAL record.
type Type byte

// WAL record types.
const (
	// RecInsert carries rows written by COPY / INSERT under a provisional
	// tag.
	RecInsert Type = iota + 1
	// RecDelete carries the rows a DELETE/UPDATE marked under a provisional
	// tag, plus the snapshot epoch the statement read at (replay re-applies
	// the delete under the same visibility).
	RecDelete
	// RecCommit maps a provisional tag to its commit epoch. Fsynced.
	RecCommit
	// RecAbort discards a provisional tag.
	RecAbort
	// RecDDL carries a catalog operation (create/drop/rename table, views),
	// applied immediately on replay — mirroring the engine, where deferred
	// DDL runs in commit hooks that are not rolled back.
	RecDDL
	// RecCheckpoint opens a fresh log file, naming the durable epoch the
	// preceding checkpoint persisted.
	RecCheckpoint
)

func (t Type) String() string {
	switch t {
	case RecInsert:
		return "INSERT"
	case RecDelete:
		return "DELETE"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecDDL:
		return "DDL"
	case RecCheckpoint:
		return "CHECKPOINT"
	default:
		return "?"
	}
}

// Record is one logical WAL entry.
type Record struct {
	Type  Type
	Tag   uint64 // provisional transaction tag (insert/delete/commit/abort)
	Epoch uint64 // commit epoch, delete snapshot epoch, or durable epoch
	Op    byte   // DDL opcode (the engine defines the codes)
	// Direct is a format field only: logs written before every write became a
	// ROS container set it on bulk-load inserts. The engine no longer sets or
	// reads it; the byte stays so old logs decode and replay unchanged.
	Direct bool
	Table  string // target table (insert/delete)
	Rows   []byte // storage.AppendBatches row block (insert/delete)
	DDL    []byte // DDL payload (engine-defined encoding)
}

// format is the log's framing (internal/framelog): the file magic, and the
// bound on one encoded record that Append and the scan both enforce. Never
// assigned.
var format = framelog.Format{Magic: "VWAL0001", MaxPayload: 1 << 30}

// ErrCrashed is returned by every operation after a simulated crash
// (FailAfterRecords) tears the log.
var ErrCrashed = framelog.ErrCrashed

// appendTo appends rec's frame to w, from its parts: the fields before the row
// block, the row block itself, then the DDL payload's length and the payload.
// Neither payload is copied on the way.
func (r Record) appendTo(w *framelog.Writer) (int, error) {
	b := make([]byte, 0, 32+len(r.Table))
	b = append(b, byte(r.Type))
	b = binary.AppendUvarint(b, r.Tag)
	b = binary.AppendUvarint(b, r.Epoch)
	b = append(b, r.Op, 0)
	if r.Direct {
		b[len(b)-1] = 1
	}
	b = append(binary.AppendUvarint(b, uint64(len(r.Table))), r.Table...)
	b = binary.AppendUvarint(b, uint64(len(r.Rows)))
	head := len(b)
	b = binary.AppendUvarint(b, uint64(len(r.DDL)))
	return w.Append(b[:head], r.Rows, b[head:], r.DDL)
}

func decodeRecord(payload []byte) (Record, error) {
	r := bytes.NewReader(payload)
	var rec Record
	tb, err := r.ReadByte()
	if err != nil {
		return rec, err
	}
	rec.Type = Type(tb)
	if rec.Tag, err = binary.ReadUvarint(r); err != nil {
		return rec, err
	}
	if rec.Epoch, err = binary.ReadUvarint(r); err != nil {
		return rec, err
	}
	if rec.Op, err = r.ReadByte(); err != nil {
		return rec, err
	}
	db, err := r.ReadByte()
	if err != nil {
		return rec, err
	}
	rec.Direct = db != 0
	readBlob := func() ([]byte, error) {
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, nil
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		return b, nil
	}
	tbl, err := readBlob()
	if err != nil {
		return rec, err
	}
	rec.Table = string(tbl)
	if rec.Rows, err = readBlob(); err != nil {
		return rec, err
	}
	if rec.DDL, err = readBlob(); err != nil {
		return rec, err
	}
	return rec, nil
}

type pendingRec struct {
	seq uint64
	rec Record
}

// Log is an open write-ahead log. Appends are serialized internally; commit
// records are flushed and fsynced before LogCommit returns.
type Log struct {
	mu     sync.Mutex
	w      *framelog.Writer // buffered: frames reach the file at Sync
	path   string
	seq    uint64 // append ordinal, used to order carried-over records
	sealed *Log   // non-nil after Seal: appends forward to the successor

	// pending holds the records belonging to transactions that have neither
	// committed nor aborted, so a checkpoint can carry them into the fresh
	// log it truncates to.
	pending map[uint64][]pendingRec

	tear framelog.Tear

	// OnWrite and OnSync feed the observability counters (wal.bytes,
	// wal.records, wal.fsyncs). OnSync receives the measured fsync duration
	// so slow syncs can raise stall events. Set them before the log is
	// shared.
	OnWrite func(bytes int64)
	OnSync  func(d time.Duration)
}

// Open opens (or creates) a log for appending, writing the file header when
// the file holds none.
func Open(path string) (*Log, error) {
	l := &Log{path: path, pending: make(map[uint64][]pendingRec)}
	w, err := format.OpenAppend(path, 1<<16, &l.tear)
	if err != nil {
		return nil, err
	}
	l.w = w
	return l, nil
}

// Path returns the log's file path.
func (l *Log) Path() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.path
}

// FailAfterRecords installs the chaos hook: after n more successful appends,
// the next record is torn mid-frame and every subsequent operation returns
// ErrCrashed — the moral equivalent of SIGKILL between two sector writes.
func (l *Log) FailAfterRecords(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tear.FailAfter(n)
}

// Append writes one record without forcing it to disk. Records tagged with a
// provisional transaction are tracked for checkpoint carryover until their
// commit or abort arrives. A record whose encoding exceeds the log's bound is
// refused with framelog.ErrTooLarge and not written.
//
// The log keeps rec itself, not a copy, for that carryover: the caller must
// not modify rec.Rows or rec.DDL after Append returns.
func (l *Log) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(rec)
}

func (l *Log) appendLocked(rec Record) error {
	if l.sealed != nil {
		// The checkpoint moved the tail of the log to a successor file; a
		// statement that raced the swap lands there instead.
		return l.sealed.Append(rec)
	}
	n, err := rec.appendTo(l.w)
	if err != nil {
		return err
	}
	l.seq++
	if rec.Tag != 0 && (rec.Type == RecInsert || rec.Type == RecDelete) {
		l.pending[rec.Tag] = append(l.pending[rec.Tag], pendingRec{seq: l.seq, rec: rec})
	}
	if rec.Type == RecCommit || rec.Type == RecAbort {
		delete(l.pending, rec.Tag)
	}
	if l.OnWrite != nil {
		l.OnWrite(int64(n))
	}
	return nil
}

// Sync flushes buffered records and fsyncs the file.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.sealed != nil {
		return l.sealed.Sync()
	}
	if err := l.tear.Err(); err != nil {
		return err
	}
	// Flushed first so OnSync times the fsync alone.
	if err := l.w.Flush(); err != nil {
		return err
	}
	start := time.Now()
	if err := l.w.Sync(); err != nil {
		return err
	}
	if l.OnSync != nil {
		l.OnSync(time.Since(start))
	}
	return nil
}

// LogCommit appends a commit record mapping tag to epoch and fsyncs: the
// transaction is durable iff this returns nil. Satisfies txn.CommitLog.
func (l *Log) LogCommit(tag, epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.appendLocked(Record{Type: RecCommit, Tag: tag, Epoch: epoch}); err != nil {
		return err
	}
	return l.syncLocked()
}

// LogAbort appends an abort record for tag (no fsync: an abort that never
// reaches disk is indistinguishable from a crash, and replay discards
// uncommitted tags either way). Satisfies txn.CommitLog.
func (l *Log) LogAbort(tag uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(Record{Type: RecAbort, Tag: tag})
}

// Seal redirects the log's future into next once publish has made next the
// log to recover from: the records of still-uncommitted transactions are
// copied over in their original append order, next is synced, publish runs
// (the checkpoint writes the manifest naming next), and from then on every
// append is forwarded. All of it runs under the log's lock, so no record
// lands in the log meanwhile. If any step fails the log stays live and
// unchanged, and the caller discards next. The sealed file itself is frozen —
// the caller deletes it once the checkpoint manifest is durable.
func (l *Log) Seal(next *Log, publish func() error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.tear.Err(); err != nil {
		return err
	}
	if l.sealed != nil {
		return fmt.Errorf("wal: log already sealed")
	}
	var carry []pendingRec
	for _, recs := range l.pending {
		carry = append(carry, recs...)
	}
	sort.Slice(carry, func(i, j int) bool { return carry[i].seq < carry[j].seq })
	for _, p := range carry {
		if err := next.Append(p.rec); err != nil {
			return err
		}
	}
	if err := next.Sync(); err != nil {
		return err
	}
	if err := publish(); err != nil {
		return err
	}
	l.w.Flush()
	l.sealed = next
	l.pending = nil
	return nil
}

// Close flushes and closes the file (without fsync — callers needing
// durability call Sync first). On a sealed log the flush writes nothing:
// Seal flushed the buffer and every append since went to the successor.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Close()
}

// ReadAll decodes every intact record in the log at path. A torn tail — a
// short header, a short payload, a CRC mismatch or an undecodable record on
// the final frames, the signature of a crash mid-append — ends the scan
// without error; replay proceeds with the durable prefix. A missing file
// yields no records.
func ReadAll(path string) ([]Record, error) { return scan(path, false) }

// Recover is ReadAll plus repair: if the log has a torn tail, the file is
// truncated back to its last intact record, so a subsequent Open appends
// after valid frames instead of burying new records behind garbage.
func Recover(path string) ([]Record, error) { return scan(path, true) }

func scan(path string, repair bool) (recs []Record, err error) {
	_, err = format.ScanFile(path, repair, func(payload []byte) bool {
		rec, derr := decodeRecord(payload)
		if derr == nil {
			recs = append(recs, rec)
		}
		return derr == nil
	})
	return recs, err
}
