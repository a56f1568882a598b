package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

// This file implements the durable forms of the storage layer: row blocks
// (the payload of WAL insert/delete records), ROS container files (one file
// per container, column pages serialized with the existing encodings), and
// WOS snapshots (the committed remainder of a write buffer at checkpoint).
// Every format ends in a CRC32 so recovery can reject torn or corrupt files.

var (
	rosMagic = []byte("VRC2") // per-column zone maps after the delete section
	wosMagic = []byte("VWS1")
)

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

func readStatValue(r *bytes.Reader) (types.Value, error) {
	tb, err := r.ReadByte()
	if err != nil {
		return types.Value{}, err
	}
	var tmp [8]byte
	switch t := types.Type(tb); t {
	case types.Int64:
		if _, err := readFull(r, tmp[:]); err != nil {
			return types.Value{}, err
		}
		return types.IntValue(int64(binary.LittleEndian.Uint64(tmp[:]))), nil
	case types.Float64:
		if _, err := readFull(r, tmp[:]); err != nil {
			return types.Value{}, err
		}
		return types.FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(tmp[:]))), nil
	case types.Varchar:
		ln, err := binary.ReadUvarint(r)
		if err != nil {
			return types.Value{}, err
		}
		s := make([]byte, ln)
		if _, err := readFull(r, s); err != nil {
			return types.Value{}, err
		}
		return types.StringValue(string(s)), nil
	case types.Bool:
		b, err := r.ReadByte()
		if err != nil {
			return types.Value{}, err
		}
		return types.BoolValue(b != 0), nil
	default:
		return types.Value{}, fmt.Errorf("storage: bad zone-map value type %d", tb)
	}
}

func writeSchema(buf *bytes.Buffer, schema types.Schema) {
	writeUvarint(buf, uint64(schema.NumCols()))
	for _, c := range schema.Cols {
		writeUvarint(buf, uint64(len(c.Name)))
		buf.WriteString(c.Name)
		buf.WriteByte(byte(c.T))
	}
}

func readSchema(r *bytes.Reader) (types.Schema, error) {
	var schema types.Schema
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return schema, fmt.Errorf("storage: bad schema header: %w", err)
	}
	for i := uint64(0); i < n; i++ {
		ln, err := binary.ReadUvarint(r)
		if err != nil {
			return schema, err
		}
		name := make([]byte, ln)
		if _, err := readFull(r, name); err != nil {
			return schema, err
		}
		tb, err := r.ReadByte()
		if err != nil {
			return schema, err
		}
		schema.Cols = append(schema.Cols, types.Column{Name: string(name), T: types.Type(tb)})
	}
	return schema, nil
}

func writeColumns(buf *bytes.Buffer, cols []Column) error {
	for _, c := range cols {
		chunk, err := EncodeColumn(c, ChooseEncoding(c))
		if err != nil {
			return err
		}
		writeUvarint(buf, uint64(len(chunk)))
		buf.Write(chunk)
	}
	return nil
}

func readColumns(r *bytes.Reader, ncols, nrows int) ([]Column, error) {
	cols := make([]Column, ncols)
	for i := range cols {
		sz, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		chunk := make([]byte, sz)
		if _, err := readFull(r, chunk); err != nil {
			return nil, err
		}
		col, err := DecodeColumn(chunk)
		if err != nil {
			return nil, err
		}
		if col.Len() != nrows {
			return nil, fmt.Errorf("storage: column %d has %d rows, want %d", i, col.Len(), nrows)
		}
		cols[i] = col
	}
	return cols, nil
}

// EncodeRows serializes rows column-wise with the storage encodings plus the
// schema needed to decode them standalone — the payload format of WAL
// insert/delete records.
func EncodeRows(schema types.Schema, rows []types.Row) ([]byte, error) {
	var buf bytes.Buffer
	writeSchema(&buf, schema)
	writeUvarint(&buf, uint64(len(rows)))
	if len(rows) > 0 {
		cols, err := ColumnsFromRows(rows, schema)
		if err != nil {
			return nil, err
		}
		if err := writeColumns(&buf, cols); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// EncodeColumns serializes column vectors with their schema, in the exact
// layout of EncodeRows — the payload format of streamed wire result batches.
// nrows must match every column's length.
func EncodeColumns(schema types.Schema, cols []Column, nrows int) ([]byte, error) {
	var buf bytes.Buffer
	writeSchema(&buf, schema)
	writeUvarint(&buf, uint64(nrows))
	if nrows > 0 {
		if err := writeColumns(&buf, cols); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// DecodeColumns reverses EncodeColumns/EncodeRows without materializing
// rows: the decoded vectors can feed a Batch (or the wire) directly.
// nrows 0 returns nil columns with the schema intact.
func DecodeColumns(data []byte) (types.Schema, []Column, int, error) {
	r := bytes.NewReader(data)
	schema, err := readSchema(r)
	if err != nil {
		return schema, nil, 0, err
	}
	n64, err := binary.ReadUvarint(r)
	if err != nil {
		return schema, nil, 0, err
	}
	n := int(n64)
	if n == 0 {
		return schema, nil, 0, nil
	}
	cols, err := readColumns(r, schema.NumCols(), n)
	if err != nil {
		return schema, nil, 0, err
	}
	return schema, cols, n, nil
}

// DecodeRows reverses EncodeRows.
func DecodeRows(data []byte) (types.Schema, []types.Row, error) {
	schema, cols, n, err := DecodeColumns(data)
	if err != nil || n == 0 {
		return schema, nil, err
	}
	rows := make([]types.Row, n)
	backing := make([]types.Value, n*len(cols))
	for i := 0; i < n; i++ {
		row := backing[i*len(cols) : (i+1)*len(cols) : (i+1)*len(cols)]
		for j, c := range cols {
			row[j] = c.Get(i)
		}
		rows[i] = row
	}
	return schema, rows, nil
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
	start := c.start
	var del []uint64
	if c.del != nil {
		del = append(make([]uint64, 0, len(c.del)), c.del...)
	}
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
	anyDel := false
	for _, d := range del {
		if d != 0 && d < ProvisionalBase {
			anyDel = true
			break
		}
	}
	if !anyDel {
		buf.WriteByte(0)
	} else {
		buf.WriteByte(1)
		for _, d := range del {
			if d >= ProvisionalBase {
				d = 0
			}
			writeUvarint(&buf, d)
		}
	}
	// Zone-map section: per-column null count and min/max bounds, so
	// recovery restores pruning metadata without rescanning the columns.
	stats := c.stats
	if len(stats) != len(c.Cols) {
		stats = ComputeStats(c.Cols)
	}
	for _, st := range stats {
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
	r := bytes.NewReader(body)
	head := make([]byte, len(rosMagic))
	if _, err := readFull(r, head); err != nil {
		return nil, err
	}
	if !bytes.Equal(head, rosMagic) {
		return nil, fmt.Errorf("storage: bad ROS container magic %q", head)
	}
	start, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	n64, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	n := int(n64)
	schema, err := readSchema(r)
	if err != nil {
		return nil, err
	}
	cols, err := readColumns(r, schema.NumCols(), n)
	if err != nil {
		return nil, err
	}
	hashes := make([]uint32, n)
	var tmp [4]byte
	for i := range hashes {
		if _, err := readFull(r, tmp[:]); err != nil {
			return nil, err
		}
		hashes[i] = binary.LittleEndian.Uint32(tmp[:])
	}
	marker, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	var del []uint64
	if marker != 0 {
		del = make([]uint64, n)
		for i := range del {
			if del[i], err = binary.ReadUvarint(r); err != nil {
				return nil, err
			}
		}
	}
	stats := make([]ColStats, len(cols))
	for i := range stats {
		nulls, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		stats[i].NullCount = int(nulls)
		has, err := r.ReadByte()
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
		}
	}
	return &ROSContainer{
		Schema:   schema,
		Cols:     cols,
		RowCount: n,
		Hashes:   hashes,
		stats:    stats,
		start:    start,
		del:      del,
	}, nil
}

// MarshalWOS serializes the committed rows of the store's write buffer
// (insert epoch committed; delete marks kept only when committed) for the
// checkpoint. Provisional rows are excluded — the WAL's carried-over records
// re-create them on recovery if their transaction ever commits. The returned
// count is the number of rows serialized; zero means no file is needed.
func (s *Store) MarshalWOS() ([]byte, int, error) {
	w := s.wos
	w.mu.RLock()
	var rows []types.Row
	var starts, dels []uint64
	for i := range w.rows {
		if w.starts[i] >= ProvisionalBase {
			continue
		}
		d := w.dels[i]
		if d >= ProvisionalBase {
			d = 0
		}
		rows = append(rows, w.rows[i])
		starts = append(starts, w.starts[i])
		dels = append(dels, d)
	}
	w.mu.RUnlock()
	if len(rows) == 0 {
		return nil, 0, nil
	}
	var buf bytes.Buffer
	buf.Write(wosMagic)
	writeUvarint(&buf, uint64(len(rows)))
	writeSchema(&buf, s.schema)
	cols, err := ColumnsFromRows(rows, s.schema)
	if err != nil {
		return nil, 0, err
	}
	if err := writeColumns(&buf, cols); err != nil {
		return nil, 0, err
	}
	for i := range rows {
		writeUvarint(&buf, starts[i])
		writeUvarint(&buf, dels[i])
	}
	return sealCRC(&buf), len(rows), nil
}

// LoadWOS restores a checkpointed WOS snapshot into the store's write buffer
// (crash recovery). Segmentation hashes are recomputed from the store's
// layout rather than persisted.
func (s *Store) LoadWOS(data []byte) error {
	body, err := checkCRC(data, "WOS snapshot")
	if err != nil {
		return err
	}
	r := bytes.NewReader(body)
	head := make([]byte, len(wosMagic))
	if _, err := readFull(r, head); err != nil {
		return err
	}
	if !bytes.Equal(head, wosMagic) {
		return fmt.Errorf("storage: bad WOS snapshot magic %q", head)
	}
	n64, err := binary.ReadUvarint(r)
	if err != nil {
		return err
	}
	n := int(n64)
	schema, err := readSchema(r)
	if err != nil {
		return err
	}
	cols, err := readColumns(r, schema.NumCols(), n)
	if err != nil {
		return err
	}
	w := s.wos
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := 0; i < n; i++ {
		row := make(types.Row, len(cols))
		for j, c := range cols {
			row[j] = c.Get(i)
		}
		start, err := binary.ReadUvarint(r)
		if err != nil {
			return err
		}
		del, err := binary.ReadUvarint(r)
		if err != nil {
			return err
		}
		w.rows = append(w.rows, row)
		w.hashes = append(w.hashes, vhash.HashRow(row, s.segIdx))
		w.starts = append(w.starts, start)
		w.dels = append(w.dels, del)
	}
	return nil
}
