package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"vsfabric/internal/types"
)

// This file implements the durable forms of the storage layer: row blocks
// (the payload of WAL insert/delete records, written by AppendBatches) and ROS
// container files (one file per container, column pages serialized with the
// existing encodings). Every write lands as a container, so a store's durable
// form is its committed containers' files alone. A container file ends in a
// CRC32 so recovery can reject torn or corrupt files.

var rosMagic = []byte("VRC2") // per-column zone maps after the delete section

// writeStatValue serializes a non-null zone-map bound: type byte + payload.
func writeStatValue(buf *bytes.Buffer, v types.Value) {
	buf.WriteByte(byte(v.T))
	var tmp [8]byte
	switch v.T {
	case types.Int64:
		binary.LittleEndian.PutUint64(tmp[:], uint64(v.I))
		buf.Write(tmp[:])
	case types.Float64:
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v.F))
		buf.Write(tmp[:])
	case types.Varchar:
		writeUvarint(buf, uint64(len(v.S)))
		buf.WriteString(v.S)
	case types.Bool:
		b := byte(0)
		if v.B {
			b = 1
		}
		buf.WriteByte(b)
	}
}

func readStatValue(r *reader) (types.Value, error) {
	tb, err := r.byte()
	if err != nil {
		return types.Value{}, err
	}
	switch t := types.Type(tb); t {
	case types.Int64, types.Float64:
		p, err := r.take(8)
		if err != nil {
			return types.Value{}, err
		}
		bits := binary.LittleEndian.Uint64(p)
		if t == types.Float64 {
			return types.FloatValue(math.Float64frombits(bits)), nil
		}
		return types.IntValue(int64(bits)), nil
	case types.Varchar:
		s, err := r.str()
		return types.StringValue(s), err
	case types.Bool:
		b, err := r.byte()
		return types.BoolValue(b != 0), err
	default:
		return types.Value{}, corruptf("bad zone-map value type %d", tb)
	}
}

func writeSchema(buf *bytes.Buffer, schema types.Schema) {
	buf.Write(appendSchema(nil, schema))
}

func appendSchema(dst []byte, schema types.Schema) []byte {
	dst = binary.AppendUvarint(dst, uint64(schema.NumCols()))
	for _, c := range schema.Cols {
		dst = binary.AppendUvarint(dst, uint64(len(c.Name)))
		dst = append(dst, c.Name...)
		dst = append(dst, byte(c.T))
	}
	return dst
}

func readSchema(r *reader) (types.Schema, error) {
	var schema types.Schema
	// A column is at least its name's length prefix and its type byte.
	n, err := r.count(2)
	if err != nil {
		return schema, fmt.Errorf("storage: bad schema header: %w", err)
	}
	schema.Cols = make([]types.Column, n)
	for i := range schema.Cols {
		name, err := r.str()
		if err != nil {
			return schema, err
		}
		tb, err := r.byte()
		if err != nil {
			return schema, err
		}
		schema.Cols[i] = types.Column{Name: name, T: types.Type(tb)}
	}
	return schema, nil
}

func writeColumns(buf *bytes.Buffer, cols []Column) error {
	chunks, total := make([][]byte, len(cols)), 0
	for i, c := range cols {
		chunk, err := encodeColumn(c, chooseEncoding(c))
		if err != nil {
			return err
		}
		chunks[i] = chunk
		total += binary.MaxVarintLen64 + len(chunk)
	}
	buf.Grow(total)
	for _, chunk := range chunks {
		writeUvarint(buf, uint64(len(chunk)))
		buf.Write(chunk)
	}
	return nil
}

// readColumns reads ncols column chunks of exactly nrows rows each. The
// caller vouches for nrows: an RLE chunk expands to it whatever its size.
func readColumns(r *reader, ncols int, nrows uint64) ([]Column, error) {
	cols := make([]Column, ncols)
	for i := range cols {
		sz, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		chunk, err := r.take(sz)
		if err != nil {
			return nil, err
		}
		if cols[i], err = decodeColumn(chunk, int64(nrows)); err != nil {
			return nil, fmt.Errorf("column %d: %w", i, err)
		}
	}
	return cols, nil
}

// EncodeRows is AppendBatches for a caller that holds rows: the row block of
// rows, columnized once. The benchmark's codec probe, the HDFS baseline's
// files and tests call it.
func EncodeRows(schema types.Schema, rows []types.Row) ([]byte, error) {
	cols, err := ColumnsFromRows(rows, schema)
	if err != nil {
		return nil, err
	}
	return AppendBatches(nil, schema, []*Batch{{Cols: cols, Sel: IdentitySel(len(rows))}})
}

// DecodeColumns reverses AppendBatches without materializing
// rows: the decoded vectors can feed a Batch (or the wire) directly. maxRows
// is the most rows the source may put in one block; a block claiming more is
// corrupt. nrows 0 returns nil columns with the schema intact.
func DecodeColumns(data []byte, maxRows int) (types.Schema, []Column, int, error) {
	r := &reader{b: data}
	schema, err := readSchema(r)
	if err != nil {
		return schema, nil, 0, err
	}
	n, err := r.uvarint()
	if err != nil || n == 0 {
		return schema, nil, 0, err
	}
	if n > uint64(maxRows) || schema.NumCols() == 0 {
		return schema, nil, 0, corruptf("block of %d rows x %d columns (at most %d rows allowed)", n, schema.NumCols(), maxRows)
	}
	cols, err := readColumns(r, schema.NumCols(), n)
	if err != nil {
		return schema, nil, 0, err
	}
	for i, c := range cols {
		if c.Type() != schema.Cols[i].T {
			return schema, nil, 0, corruptf("column %d is %v under a %v schema column", i, c.Type(), schema.Cols[i].T)
		}
	}
	return schema, cols, int(n), nil
}

// DecodeRows reverses EncodeRows into boxed rows. WAL replay and the data
// collector decode columns; the benchmark's codec probe and the HDFS
// baseline's reader call this.
func DecodeRows(data []byte) (types.Schema, []types.Row, error) {
	schema, cols, n, err := DecodeColumns(data, math.MaxInt32)
	if err != nil || n == 0 {
		return schema, nil, err
	}
	return schema, Materialize([]*Batch{{Cols: cols, Sel: IdentitySel(n)}}), nil
}

// sealCRC appends the IEEE CRC32 of everything written so far.
func sealCRC(buf *bytes.Buffer) []byte {
	sum := crc32.ChecksumIEEE(buf.Bytes())
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], sum)
	buf.Write(tail[:])
	return buf.Bytes()
}

// checkCRC verifies and strips the trailing CRC32.
func checkCRC(data []byte, what string) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("storage: %s file too short", what)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("storage: %s file checksum mismatch", what)
	}
	return body, nil
}

// MarshalContainer serializes the committed view of a ROS container: the
// column pages, per-row segmentation hashes, the insert epoch, and the
// committed entries of the delete vector (provisional delete marks are
// written as live — the WAL carries the records that will re-apply them on
// recovery if their transaction commits). The container's start epoch must be
// committed; provisional containers are never persisted.
func MarshalContainer(c *ROSContainer) ([]byte, error) {
	c.mu.RLock()
	start, del := c.start, slices.Clone(c.del)
	c.mu.RUnlock()
	if start >= ProvisionalBase {
		return nil, fmt.Errorf("storage: refusing to persist provisional container (tag %d)", start)
	}
	var buf bytes.Buffer
	buf.Write(rosMagic)
	writeUvarint(&buf, start)
	writeUvarint(&buf, uint64(c.RowCount))
	writeSchema(&buf, c.Schema)
	if err := writeColumns(&buf, c.Cols); err != nil {
		return nil, err
	}
	var tmp [4]byte
	for _, h := range c.Hashes {
		binary.LittleEndian.PutUint32(tmp[:], h)
		buf.Write(tmp[:])
	}
	if !slices.ContainsFunc(del, func(d uint64) bool { return committedDel(d) != 0 }) {
		buf.WriteByte(0)
	} else {
		buf.WriteByte(1)
		for _, d := range del {
			writeUvarint(&buf, committedDel(d))
		}
	}
	// Zone-map section: per-column null count and min/max bounds, so
	// recovery restores pruning metadata without rescanning the columns.
	for _, st := range c.stats {
		writeUvarint(&buf, uint64(st.NullCount))
		if st.HasMinMax {
			buf.WriteByte(1)
			writeStatValue(&buf, st.Min)
			writeStatValue(&buf, st.Max)
		} else {
			buf.WriteByte(0)
		}
	}
	return sealCRC(&buf), nil
}

// UnmarshalContainer reverses MarshalContainer. The returned container is
// clean (its DiskRef dirty flag unset) once SetDiskRef is called by the
// loader.
func UnmarshalContainer(data []byte) (*ROSContainer, error) {
	body, err := checkCRC(data, "ROS container")
	if err != nil {
		return nil, err
	}
	r := &reader{b: body}
	head, err := r.take(uint64(len(rosMagic)))
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(head, rosMagic) {
		return nil, fmt.Errorf("storage: bad ROS container magic %q", head)
	}
	start, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	n64, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	schema, err := readSchema(r)
	if err != nil {
		return nil, err
	}
	// The 4 bytes of hash each row has after the columns bound the row count.
	if n64 > uint64(len(r.b)/4) {
		return nil, corruptf("%d-row container in %d bytes", n64, len(r.b))
	}
	cols, err := readColumns(r, schema.NumCols(), n64)
	if err != nil {
		return nil, err
	}
	n := int(n64)
	if err := checkColumns(cols, n, schema); err != nil {
		return nil, corruptf("%v", err)
	}
	hb, err := r.take(4 * n64)
	if err != nil {
		return nil, err
	}
	hashes := make([]uint32, n)
	for i := range hashes {
		hashes[i] = binary.LittleEndian.Uint32(hb[4*i:])
	}
	marker, err := r.byte()
	if err != nil {
		return nil, err
	}
	var del []uint64
	if marker != 0 {
		if n > len(r.b) {
			return nil, corruptf("%d delete marks in %d bytes", n, len(r.b))
		}
		del = make([]uint64, n)
		for i := range del {
			if del[i], err = r.uvarint(); err != nil {
				return nil, err
			}
		}
	}
	stats := make([]ColStats, len(cols))
	for i := range stats {
		nulls, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		stats[i].NullCount = int(nulls)
		has, err := r.byte()
		if err != nil {
			return nil, err
		}
		if has != 0 {
			stats[i].HasMinMax = true
			if stats[i].Min, err = readStatValue(r); err != nil {
				return nil, err
			}
			if stats[i].Max, err = readStatValue(r); err != nil {
				return nil, err
			}
			if t := schema.Cols[i].T; stats[i].Min.T != t || stats[i].Max.T != t {
				return nil, corruptf("column %d's zone map bounds a %v column by %v and %v", i, t, stats[i].Min.T, stats[i].Max.T)
			}
		}
	}
	return &ROSContainer{
		Schema:   schema,
		Cols:     cols,
		RowCount: n,
		Hashes:   hashes,
		span:     hashSpan(hashes),
		stats:    stats,
		start:    start,
		del:      del,
	}, nil
}
