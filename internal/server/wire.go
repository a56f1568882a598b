package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"vsfabric/internal/pool"
	"vsfabric/internal/vertica"
)

// This file is the binary wire codec and the shared sentinel registry.
//
// Protocol negotiation: a client's first frame is a hello ('H') naming the
// highest version it speaks; the server answers with another hello carrying
// the version both sides then use. This build speaks exactly v2: a client
// that cannot reach it is refused with an unsupported_version error frame.
//
// Frames (1-byte type + 4-byte big-endian length + payload):
//
//	'q' query    — tag(4) traceID(8) parentID(8) peer(uv+bytes) sql(uv+bytes)
//	'c' copy     — same layout; untagged 'D' data frames follow, ended by
//	               'E' (load what was sent) or 'A' + reason (the source
//	               failed: abort the statement). A COPY owns the connection
//	               until its stream terminates.
//	'b' batch    — tag(4) + one storage.DecodeColumns row block: up to
//	               wireBatchRows rows of the result's column vectors,
//	               gathered into the frame without row boxing
//	'z' done     — tag(4) flags(1) rowsAffected(uv) epoch(uv)
//	               [flags&doneHasCopy: loaded(uv) rejected(uv) nsample(uv)
//	               sample strings (uv+bytes each)]
//	'x' error    — tag(4) flags(1: transient) code(uv+bytes) msg(uv+bytes)
//
// Requests carry a client-chosen tag; every response frame echoes the tag
// of the request it answers. Responses come back in request order (the
// server executes one statement at a time per connection), so a client may
// pipeline any number of 'q' requests and match responses FIFO.
//
// A result carrying any schema sends at least one batch frame even with
// zero rows, so "SELECT ... LIMIT 0" schema probes survive the trip.

// protocolV2 is the one protocol version this build speaks.
const protocolV2 = 2

// Frame types ('H' is shared by both directions of the handshake).
const (
	frameHello    = 'H'
	frameBinQuery = 'q'
	frameBinCopy  = 'c'
	frameBatch    = 'b'
	frameDone     = 'z'
	frameBinError = 'x'
)

const doneHasCopy = 1 << 0
const errTransient = 1 << 0

// wireBatchRows bounds rows per batch frame, so arbitrarily large results
// stream in bounded frames well under maxFrame.
const wireBatchRows = 16384

// hello is the tiny JSON handshake payload (negotiated once per
// connection; JSON keeps it inspectable and trivially extensible).
type hello struct {
	MaxVersion int `json:"max_version,omitempty"` // client → server
	Version    int `json:"version,omitempty"`     // server → client
}

// ErrProtocol reports a wire-protocol violation (malformed frame, unexpected
// frame type, broken COPY stream). It crosses the wire as a typed code so
// the far side can tell a torn stream from a SQL error.
var ErrProtocol = errors.New("server: protocol error")

// ErrUnsupportedVersion reports a peer that cannot speak this build's
// protocol version. It is permanent: redialing negotiates the same answer.
var ErrUnsupportedVersion = errors.New("server: unsupported protocol version")

// wireCodes is the sentinel registry: the single table both halves of the
// wire share. Adding an errors.Is-able sentinel to the protocol is one line
// here. Order matters where chains overlap (a removed-node error must not
// report as the more general node-down).
var wireCodes = []struct {
	code string
	err  error
}{
	{"node_removed", vertica.ErrNodeRemoved},
	{"node_down", vertica.ErrNodeDown},
	{"session_limit", vertica.ErrSessionLimit},
	{"pool_queue_timeout", pool.ErrQueueTimeout},
	{"pool_rejected", pool.ErrRejected},
	{"protocol_error", ErrProtocol},
	{"unsupported_version", ErrUnsupportedVersion},
}

// Typed pool sentinels re-exported under wire-level names, so client code
// can match admission refusals without importing the engine's pool package.
var (
	ErrPoolQueueTimeout = pool.ErrQueueTimeout
	ErrPoolRejected     = pool.ErrRejected
)

// sentinelCode maps an error chain to its wire code ("" when none applies).
func sentinelCode(e error) string {
	for _, wc := range wireCodes {
		if errors.Is(e, wc.err) {
			return wc.code
		}
	}
	return ""
}

// sentinelFor is the client-side inverse of sentinelCode.
func sentinelFor(code string) error {
	for _, wc := range wireCodes {
		if wc.code == code {
			return wc.err
		}
	}
	return nil
}

// binRequest is the decoded form of a 'q'/'c' frame.
type binRequest struct {
	Tag      uint32
	TraceID  uint64
	ParentID uint64
	Peer     string
	SQL      string
}

func encodeBinRequest(r binRequest) []byte {
	buf := make([]byte, 0, 24+len(r.Peer)+len(r.SQL)+8)
	buf = binary.BigEndian.AppendUint32(buf, r.Tag)
	buf = binary.BigEndian.AppendUint64(buf, r.TraceID)
	buf = binary.BigEndian.AppendUint64(buf, r.ParentID)
	buf = appendString(buf, r.Peer)
	buf = appendString(buf, r.SQL)
	return buf
}

func decodeBinRequest(p []byte) (binRequest, error) {
	var r binRequest
	if len(p) < 20 {
		return r, fmt.Errorf("%w: request frame of %d bytes", ErrProtocol, len(p))
	}
	r.Tag = binary.BigEndian.Uint32(p[0:4])
	r.TraceID = binary.BigEndian.Uint64(p[4:12])
	r.ParentID = binary.BigEndian.Uint64(p[12:20])
	br := bytes.NewReader(p[20:])
	var err error
	if r.Peer, err = readString(br); err != nil {
		return r, fmt.Errorf("%w: request peer: %v", ErrProtocol, err)
	}
	if r.SQL, err = readString(br); err != nil {
		return r, fmt.Errorf("%w: request sql: %v", ErrProtocol, err)
	}
	if br.Len() != 0 {
		return r, fmt.Errorf("%w: %d trailing bytes in request", ErrProtocol, br.Len())
	}
	return r, nil
}

// binDone is the decoded form of a 'z' frame: the statement's scalar
// outcome, sent after any batch frames.
type binDone struct {
	Tag          uint32
	RowsAffected int64
	Epoch        uint64
	Copy         *vertica.CopyResult
}

func encodeBinDone(d binDone) []byte {
	buf := make([]byte, 0, 32)
	buf = binary.BigEndian.AppendUint32(buf, d.Tag)
	var flags byte
	if d.Copy != nil {
		flags |= doneHasCopy
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(d.RowsAffected))
	buf = binary.AppendUvarint(buf, d.Epoch)
	if d.Copy != nil {
		buf = binary.AppendUvarint(buf, uint64(d.Copy.Loaded))
		buf = binary.AppendUvarint(buf, uint64(d.Copy.Rejected))
		buf = binary.AppendUvarint(buf, uint64(len(d.Copy.RejectedSample)))
		for _, s := range d.Copy.RejectedSample {
			buf = appendString(buf, s)
		}
	}
	return buf
}

func decodeBinDone(p []byte) (binDone, error) {
	var d binDone
	if len(p) < 5 {
		return d, fmt.Errorf("%w: done frame of %d bytes", ErrProtocol, len(p))
	}
	d.Tag = binary.BigEndian.Uint32(p[0:4])
	flags := p[4]
	if flags&^doneHasCopy != 0 {
		return d, fmt.Errorf("%w: unknown done flags %#x", ErrProtocol, flags)
	}
	br := bytes.NewReader(p[5:])
	ra, err := readUvarint(br)
	if err != nil {
		return d, fmt.Errorf("%w: done rows_affected: %v", ErrProtocol, err)
	}
	d.RowsAffected = int64(ra)
	if d.Epoch, err = readUvarint(br); err != nil {
		return d, fmt.Errorf("%w: done epoch: %v", ErrProtocol, err)
	}
	if flags&doneHasCopy != 0 {
		cp := &vertica.CopyResult{}
		loaded, err := readUvarint(br)
		if err != nil {
			return d, fmt.Errorf("%w: done copy stats: %v", ErrProtocol, err)
		}
		rejected, err := readUvarint(br)
		if err != nil {
			return d, fmt.Errorf("%w: done copy stats: %v", ErrProtocol, err)
		}
		cp.Loaded, cp.Rejected = int64(loaded), int64(rejected)
		n, err := readUvarint(br)
		if err != nil {
			return d, fmt.Errorf("%w: done copy sample: %v", ErrProtocol, err)
		}
		if n > uint64(maxFrame) {
			return d, fmt.Errorf("%w: done copy sample count %d", ErrProtocol, n)
		}
		for i := uint64(0); i < n; i++ {
			s, err := readString(br)
			if err != nil {
				return d, fmt.Errorf("%w: done copy sample: %v", ErrProtocol, err)
			}
			cp.RejectedSample = append(cp.RejectedSample, s)
		}
		d.Copy = cp
	}
	if br.Len() != 0 {
		return d, fmt.Errorf("%w: %d trailing bytes in done frame", ErrProtocol, br.Len())
	}
	return d, nil
}

// binError is the decoded form of an 'x' frame.
type binError struct {
	Tag       uint32
	Transient bool
	Code      string
	Msg       string
}

func encodeBinError(e binError) []byte {
	buf := make([]byte, 0, 16+len(e.Code)+len(e.Msg))
	buf = binary.BigEndian.AppendUint32(buf, e.Tag)
	var flags byte
	if e.Transient {
		flags |= errTransient
	}
	buf = append(buf, flags)
	buf = appendString(buf, e.Code)
	buf = appendString(buf, e.Msg)
	return buf
}

func decodeBinError(p []byte) (binError, error) {
	var e binError
	if len(p) < 5 {
		return e, fmt.Errorf("%w: error frame of %d bytes", ErrProtocol, len(p))
	}
	e.Tag = binary.BigEndian.Uint32(p[0:4])
	if p[4]&^errTransient != 0 {
		return e, fmt.Errorf("%w: unknown error flags %#x", ErrProtocol, p[4])
	}
	e.Transient = p[4]&errTransient != 0
	br := bytes.NewReader(p[5:])
	var err error
	if e.Code, err = readString(br); err != nil {
		return e, fmt.Errorf("%w: error code: %v", ErrProtocol, err)
	}
	if e.Msg, err = readString(br); err != nil {
		return e, fmt.Errorf("%w: error message: %v", ErrProtocol, err)
	}
	if br.Len() != 0 {
		return e, fmt.Errorf("%w: %d trailing bytes in error frame", ErrProtocol, br.Len())
	}
	return e, nil
}

// tagOf extracts the leading response tag shared by 'b'/'z'/'x' frames.
func tagOf(p []byte) (uint32, error) {
	if len(p) < 4 {
		return 0, fmt.Errorf("%w: response frame of %d bytes", ErrProtocol, len(p))
	}
	return binary.BigEndian.Uint32(p[0:4]), nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// readUvarint is binary.ReadUvarint plus a minimality check: every value has
// exactly one encoding on this wire. Accepting padded forms (0x80 0x00 for
// zero) would make decode(encode(x)) lossy for byte-level comparison, so
// frame hashes, fuzz round-trips, and any future signing would disagree on
// semantically equal frames.
func readUvarint(br *bytes.Reader) (uint64, error) {
	before := br.Len()
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, err
	}
	if before-br.Len() != len(binary.AppendUvarint(nil, v)) {
		return 0, fmt.Errorf("non-minimal uvarint encoding of %d", v)
	}
	return v, nil
}

func readString(br *bytes.Reader) (string, error) {
	n, err := readUvarint(br)
	if err != nil {
		return "", err
	}
	if n > uint64(br.Len()) {
		return "", fmt.Errorf("string of %d bytes exceeds remaining %d", n, br.Len())
	}
	b := make([]byte, n)
	if _, err := br.Read(b); err != nil {
		return "", err
	}
	return string(b), nil
}
