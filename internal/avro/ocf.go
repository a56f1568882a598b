package avro

import (
	"bufio"
	"bytes"
	"compress/flate"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

// Codec names an OCF block compression codec.
type Codec string

// Supported codecs.
const (
	CodecNull    Codec = "null"
	CodecDeflate Codec = "deflate"
)

var magic = []byte{'O', 'b', 'j', 1}

const (
	// blockHeaderRoom is the space kept free ahead of a block's bytes for its
	// two header longs (record count, byte size), so header, data and sync
	// marker leave in one Write without being copied together first.
	blockHeaderRoom = 2 * binary.MaxVarintLen64

	// maxBlockBytes bounds a block, stored and inflated: the reader refuses a
	// larger one before buffering it, whatever its header claims.
	maxBlockBytes = 16 << 20
	// blockFlushBytes closes a block early once its records reach this size,
	// so rows of any width stay far below what the reader accepts.
	blockFlushBytes = 4 << 20
	// maxHeaderField bounds one metadata key or value (the schema JSON).
	maxHeaderField = 4 << 20
)

// Writer produces an Avro Object Container File: header with schema and
// codec metadata, then compressed blocks separated by a sync marker.
//
// Deflate runs at flate.BestSpeed, a constant: on task output the level
// changes the CPU cost severalfold and the size hardly at all (DESIGN.md,
// "Write path", has the measured table).
type Writer struct {
	w         io.Writer
	schema    Schema
	kinds     []types.Type
	codec     Codec
	sync      [16]byte
	block     []byte        // blockHeaderRoom spare bytes, then the current block's records
	packed    bytes.Buffer  // the same shape with the records deflated
	fw        *flate.Writer // the file's one deflate stream, Reset per block
	count     int64
	blockRows int
	wroteHdr  bool
	err       error
}

// NewWriter creates an OCF writer. blockRows is the number of rows per block
// (0 uses a default of 4096).
func NewWriter(w io.Writer, schema Schema, codec Codec, blockRows int) (*Writer, error) {
	switch codec {
	case CodecNull, CodecDeflate:
	default:
		return nil, fmt.Errorf("avro: unsupported codec %q", codec)
	}
	kinds, err := fieldKinds(schema)
	if err != nil {
		return nil, err
	}
	if blockRows <= 0 {
		blockRows = 4096
	}
	ww := &Writer{w: w, schema: schema, kinds: kinds, codec: codec, blockRows: blockRows,
		block: make([]byte, blockHeaderRoom, 64<<10)}
	if codec == CodecDeflate {
		if ww.fw, err = flate.NewWriter(&ww.packed, flate.BestSpeed); err != nil {
			return nil, err
		}
	}
	if _, err := rand.Read(ww.sync[:]); err != nil {
		return nil, err
	}
	return ww, nil
}

func (w *Writer) writeHeader() error {
	if w.wroteHdr {
		return nil
	}
	schemaJSON, err := json.Marshal(w.schema)
	if err != nil {
		return err
	}
	b := append([]byte(nil), magic...)
	// Metadata map: one block of 2 entries, then end-of-map.
	b = appendLong(b, 2)
	for _, kv := range [][2][]byte{
		{[]byte("avro.schema"), schemaJSON},
		{[]byte("avro.codec"), []byte(w.codec)},
	} {
		b = appendLong(b, int64(len(kv[0])))
		b = append(b, kv[0]...)
		b = appendLong(b, int64(len(kv[1])))
		b = append(b, kv[1]...)
	}
	b = appendLong(b, 0)
	b = append(b, w.sync[:]...)
	if _, err := w.w.Write(b); err != nil {
		return err
	}
	w.wroteHdr = true
	return nil
}

// Append encodes one row into the current block.
func (w *Writer) Append(r types.Row) error {
	if w.err != nil {
		return w.err
	}
	if len(r) != len(w.kinds) {
		w.err = fmt.Errorf("avro: row has %d fields, schema has %d", len(r), len(w.kinds))
		return w.err
	}
	w.block = appendRow(w.block, r, w.kinds)
	w.count++
	if int(w.count) == w.blockRows || len(w.block) >= blockFlushBytes {
		return w.flushBlock()
	}
	return nil
}

// flushBlock writes the current block — count, size, data, sync marker — in
// one Write, and starts the next.
func (w *Writer) flushBlock() error {
	if w.count == 0 {
		return nil
	}
	if w.err = w.writeHeader(); w.err != nil {
		return w.err
	}
	if w.codec == CodecDeflate {
		w.err = w.writeDeflated()
	} else {
		w.block = append(w.block, w.sync[:]...)
		w.err = w.writeBlock(w.block)
	}
	w.block, w.count = w.block[:blockHeaderRoom], 0
	return w.err
}

// writeDeflated writes the current block through the file's deflate stream:
// packed is laid out like block (header room, data, then the sync marker).
func (w *Writer) writeDeflated() error {
	w.packed.Reset()
	w.packed.Write(w.block[:blockHeaderRoom])
	w.fw.Reset(&w.packed)
	if _, err := w.fw.Write(w.block[blockHeaderRoom:]); err != nil {
		return err
	}
	if err := w.fw.Close(); err != nil {
		return err
	}
	w.packed.Write(w.sync[:])
	return w.writeBlock(w.packed.Bytes())
}

// writeBlock writes out = header room, data, sync marker: the header longs
// go right-aligned into the room, and everything from there on is written.
func (w *Writer) writeBlock(out []byte) error {
	var hdr [blockHeaderRoom]byte
	h := appendLong(hdr[:0], w.count)
	h = appendLong(h, int64(len(out)-blockHeaderRoom-len(w.sync)))
	start := blockHeaderRoom - len(h)
	copy(out[start:], h)
	_, err := w.w.Write(out[start:])
	return err
}

// Close flushes the final block (and the header, so empty files are valid).
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.err = w.writeHeader(); w.err != nil {
		return w.err
	}
	return w.flushBlock()
}

// Reader consumes an Avro Object Container File block by block, decoding
// each into column vectors (ReadBlock); ReadAll is a boxing view over the
// same decoder.
type Reader struct {
	br     *bufio.Reader
	schema Schema
	codec  Codec
	sync   [16]byte
	fields []fieldDec

	// One of each per file, reused for every block.
	raw   bytes.Buffer     // the block as stored
	plain bytes.Buffer     // the block inflated
	src   bytes.Reader     // the inflater's view of raw
	fr    io.ReadCloser    // the inflater
	lim   io.LimitedReader // caps what one block may inflate to
}

// readLong reads an Avro long. io.EOF means the stream ended before the
// long's first byte; ending inside it is io.ErrUnexpectedEOF.
func readLong(br *bufio.Reader) (int64, error) {
	u, err := binary.ReadUvarint(br)
	return unzigzag(u), err
}

// readBytes fills buf with the stream's next n bytes. buf grows as the bytes
// arrive, so a length that lies costs no more memory than the stream holds.
func readBytes(br *bufio.Reader, buf *bytes.Buffer, n int64) error {
	buf.Reset()
	_, err := io.CopyN(buf, br, n)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// NewReader parses the OCF header.
func NewReader(r io.Reader) (*Reader, error) {
	rd := &Reader{br: bufio.NewReader(r), codec: CodecNull}
	br := rd.br
	var head [4]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("avro: short magic: %w", err)
	}
	if !bytes.Equal(head[:], magic) {
		return nil, fmt.Errorf("avro: bad magic %v", head)
	}
	for {
		n, err := readLong(br)
		if err != nil {
			return nil, truncatedHeader(err)
		}
		if n == 0 {
			break
		}
		if n < 0 { // negative count: size follows, per spec
			n = -n
			if _, err := readLong(br); err != nil {
				return nil, truncatedHeader(err)
			}
		}
		for i := int64(0); i < n; i++ {
			key, err := rd.readHeaderField()
			if err != nil {
				return nil, err
			}
			val, err := rd.readHeaderField()
			if err != nil {
				return nil, err
			}
			switch key {
			case "avro.schema":
				s, err := ParseSchema([]byte(val))
				if err != nil {
					return nil, err
				}
				rd.schema = s
			case "avro.codec":
				rd.codec = Codec(val)
			}
		}
	}
	if _, err := io.ReadFull(br, rd.sync[:]); err != nil {
		return nil, truncatedHeader(err)
	}
	if len(rd.schema.Fields) == 0 {
		return nil, fmt.Errorf("avro: file has no schema")
	}
	if _, err := fieldKinds(rd.schema); err != nil {
		return nil, err
	}
	rd.fields = make([]fieldDec, len(rd.schema.Fields))
	for i, f := range rd.schema.Fields {
		rd.fields[i] = fieldDec{name: f.Name, t: f.Type}
	}
	switch rd.codec {
	case CodecNull:
	case CodecDeflate:
		rd.fr = flate.NewReader(&rd.src)
		rd.lim.R = rd.fr
	default:
		return nil, fmt.Errorf("avro: unsupported codec %q", rd.codec)
	}
	return rd, nil
}

// noEOF turns the bare io.EOF of a stream that ended where more was promised
// into io.ErrUnexpectedEOF: only the end of a file between two blocks is a
// clean io.EOF.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readHeaderField reads one length-prefixed metadata key or value.
func (r *Reader) readHeaderField() (string, error) {
	n, err := readLong(r.br)
	if err != nil {
		return "", truncatedHeader(err)
	}
	if n < 0 || n > maxHeaderField {
		return "", fmt.Errorf("avro: bad bytes length %d", n)
	}
	if err := readBytes(r.br, &r.raw, n); err != nil {
		return "", truncatedHeader(err)
	}
	return r.raw.String(), nil
}

// Schema returns the file's record schema.
func (r *Reader) Schema() Schema { return r.schema }

// ReadBlock decodes the file's next block into one dense column vector per
// schema field and returns them with the block's row count, or io.EOF at
// end of file. The caller owns the vectors. A block is consumed exactly: a
// record count that disagrees with the block's bytes, in either direction,
// is an error — never a short block or an early end of file.
func (r *Reader) ReadBlock() ([]storage.Column, int, error) {
	for {
		count, err := readLong(r.br)
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		if err != nil {
			return nil, 0, truncatedBlock(err)
		}
		data, err := r.readBlockData()
		if err != nil {
			return nil, 0, err
		}
		// Every record spends at least a byte per field (its union branch),
		// which bounds the count before vectors are sized from it.
		if count < 0 || count > int64(len(data)/len(r.fields)) {
			return nil, 0, fmt.Errorf("avro: block of %d bytes cannot hold the %d records its count says", len(data), count)
		}
		if count == 0 && len(data) == 0 {
			continue
		}
		cols, err := decodeBlock(data, int(count), r.fields)
		return cols, int(count), err
	}
}

func truncatedHeader(err error) error { return fmt.Errorf("avro: truncated header: %w", noEOF(err)) }

func truncatedBlock(err error) error { return fmt.Errorf("avro: truncated block: %w", noEOF(err)) }

// readBlockData reads the rest of a block after its count — size, stored
// bytes, sync marker — and returns the records' bytes, inflated if the codec
// says so. The slice is valid until the next call.
func (r *Reader) readBlockData() ([]byte, error) {
	size, err := readLong(r.br)
	if err != nil {
		return nil, truncatedBlock(err)
	}
	if size < 0 || size > maxBlockBytes {
		return nil, fmt.Errorf("avro: bad block size %d", size)
	}
	if err := readBytes(r.br, &r.raw, size); err != nil {
		return nil, truncatedBlock(err)
	}
	var sync [16]byte
	if _, err := io.ReadFull(r.br, sync[:]); err != nil {
		return nil, truncatedBlock(err)
	}
	if sync != r.sync {
		return nil, fmt.Errorf("avro: sync marker mismatch")
	}
	if r.codec != CodecDeflate {
		return r.raw.Bytes(), nil
	}
	r.src.Reset(r.raw.Bytes())
	if err := r.fr.(flate.Resetter).Reset(&r.src, nil); err != nil {
		return nil, fmt.Errorf("avro: deflate: %w", err)
	}
	r.plain.Reset()
	r.lim.N = maxBlockBytes + 1
	if _, err := r.plain.ReadFrom(&r.lim); err != nil {
		return nil, fmt.Errorf("avro: deflate: %w", err)
	}
	if r.plain.Len() > maxBlockBytes {
		return nil, fmt.Errorf("avro: block inflates past %d bytes", maxBlockBytes)
	}
	return r.plain.Bytes(), nil
}

// ReadAll decodes every row of an OCF stream.
func ReadAll(rd io.Reader) (Schema, []types.Row, error) {
	r, err := NewReader(rd)
	if err != nil {
		return Schema{}, nil, err
	}
	var rows []types.Row
	for {
		cols, n, err := r.ReadBlock()
		if err == io.EOF {
			return r.schema, rows, nil
		}
		if err != nil {
			return Schema{}, nil, err
		}
		rows = append(rows, storage.Materialize([]*storage.Batch{{Cols: cols, Sel: storage.IdentitySel(n)}})...)
	}
}
