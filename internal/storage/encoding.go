package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"vsfabric/internal/types"
)

// encoding identifies how a column chunk is serialized in a ROS container, the
// one layout that chooses one per column (a row block's chunks are always
// plain: AppendBatches). The set follows the
// C-Store/Vertica families the paper's storage layer is built on.
type encoding byte

// Supported column encodings.
const (
	// encPlain stores values verbatim: fixed 8-byte ints/floats, 1-byte
	// bools, length-prefixed strings.
	encPlain encoding = iota
	// encRLE stores (runLength, value) pairs; ideal for sorted or
	// low-cardinality columns.
	encRLE
	// encDeltaVarint stores int64s as zigzag-varint deltas from the previous
	// value; ideal for monotonically increasing ids.
	encDeltaVarint
	// encDict stores a string dictionary plus varint codes; ideal for
	// repetitive strings.
	encDict
)

// chooseEncoding inspects a column and picks a reasonable encoding, the way
// the database's write path would.
func chooseEncoding(c Column) encoding {
	n := c.Len()
	if n == 0 {
		return encPlain
	}
	switch col := c.(type) {
	case *Int64Column:
		runs, sorted := 1, true
		for i := 1; i < n; i++ {
			if col.Vals[i] != col.Vals[i-1] {
				runs++
			}
			if col.Vals[i] < col.Vals[i-1] {
				sorted = false
			}
		}
		if runs*4 < n {
			return encRLE
		}
		if sorted {
			return encDeltaVarint
		}
		return encPlain
	case *StringColumn:
		distinct := make(map[string]struct{}, 64)
		for _, s := range col.Vals {
			distinct[s] = struct{}{}
			if len(distinct) > n/4+1 || len(distinct) > 1<<16 {
				return encPlain
			}
		}
		return encDict
	case *BoolColumn:
		return encRLE
	default:
		return encPlain
	}
}

// encodeColumn serializes a column with the given encoding. The layout is:
// [type byte][encoding byte][varint rowCount][null bitmap?][payload]. A plain
// chunk is the one a row block carries (plainChunk).
func encodeColumn(c Column, enc encoding) ([]byte, error) {
	if enc == encPlain {
		ch, err := sizePlain(c.Type(), c.Len(), []colRead{readOf(c, IdentitySel(c.Len()))})
		if err != nil {
			return nil, err
		}
		return ch.appendTo(nil), nil
	}
	c = Densify(c) // the other encoders type-switch on the dense column set
	var buf bytes.Buffer
	buf.WriteByte(byte(c.Type()))
	buf.WriteByte(byte(enc))
	writeUvarint(&buf, uint64(c.Len()))
	writeNulls(&buf, c)
	var err error
	switch enc {
	case encRLE:
		err = encodeRLE(&buf, c)
	case encDeltaVarint:
		err = encodeDelta(&buf, c)
	case encDict:
		err = encodeDict(&buf, c)
	default:
		err = fmt.Errorf("storage: unknown encoding %d", enc)
	}
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ErrCorrupt reports encoded bytes that do not describe a valid column, row
// block or container: a field cut short, or a length larger than the bytes
// that follow it. Every decoder in this package checks a length against what
// remains before allocating from it, so a corrupt or hostile payload costs an
// error, never a panic or an allocation larger than the payload warrants.
var ErrCorrupt = errors.New("storage: corrupt encoding")

func corruptf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// maxRLERows bounds the rows an RLE chunk decoded on its own (decodeColumn
// with rows < 0) may expand to. RLE is the one encoding whose decoded size
// the encoded bytes do not bound — a run of any length is a few bytes — so
// where no enclosing header says how many rows to expect, a fixed limit
// stands in.
const maxRLERows = 1 << 24

// reader is a bounds-checked cursor over encoded bytes. Fields are sliced
// out of the buffer in bulk rather than copied through an io.Reader.
type reader struct{ b []byte }

func (r *reader) byte() (byte, error) {
	if len(r.b) == 0 {
		return 0, corruptf("unexpected end of data")
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, corruptf("bad uvarint")
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		return 0, corruptf("bad varint")
	}
	r.b = r.b[n:]
	return v, nil
}

// take returns the next n bytes, aliasing the buffer.
func (r *reader) take(n uint64) ([]byte, error) {
	if n > uint64(len(r.b)) {
		return nil, corruptf("field of %d bytes exceeds the %d remaining", n, len(r.b))
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p, nil
}

// count reads an element count whose elements each occupy at least width
// encoded bytes, so it can be allocated from safely.
func (r *reader) count(width int) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(r.b)/width) {
		return 0, corruptf("count %d exceeds the %d bytes remaining", n, len(r.b))
	}
	return int(n), nil
}

// str reads a uvarint-length-prefixed string.
func (r *reader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	p, err := r.take(n)
	return string(p), err
}

// decodeColumn decodes a chunk encodeColumn or AppendBatches wrote, which
// must hold exactly rows rows — a count the caller has already bounded — or,
// with rows < 0, as many as its own header says.
func decodeColumn(data []byte, rows int64) (Column, error) {
	r := &reader{b: data}
	tb, err := r.byte()
	if err != nil {
		return nil, err
	}
	eb, err := r.byte()
	if err != nil {
		return nil, err
	}
	t, enc := types.Type(tb), encoding(eb)
	n64, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	switch {
	case rows >= 0 && n64 != uint64(rows):
		return nil, corruptf("column chunk of %d rows, want %d", n64, rows)
	case enc != encRLE && n64 > uint64(len(r.b)):
		// Every encoding but RLE spends at least a byte per row.
		return nil, corruptf("%d rows in a %d-byte chunk", n64, len(data))
	case rows < 0 && n64 > maxRLERows:
		return nil, corruptf("RLE chunk of %d rows", n64)
	}
	n := int(n64)
	nulls, err := readNulls(r, n)
	if err != nil {
		return nil, err
	}
	switch enc {
	case encPlain:
		return decodePlain(r, t, n, nulls)
	case encRLE:
		return decodeRLE(r, t, n, nulls)
	case encDeltaVarint:
		return decodeDelta(r, t, n, nulls)
	case encDict:
		return decodeDict(r, t, n, nulls)
	default:
		return nil, corruptf("unknown encoding %d", enc)
	}
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func writeVarint(buf *bytes.Buffer, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutVarint(tmp[:], v)])
}

// writeNulls writes a presence marker byte followed by a packed bitmap when
// the column contains NULLs.
func writeNulls(buf *bytes.Buffer, c Column) {
	nulls := nullsOf(c)
	if !slices.Contains(nulls, true) {
		buf.WriteByte(0)
		return
	}
	buf.WriteByte(1)
	bitmap := make([]byte, (len(nulls)+7)/8)
	for i, null := range nulls {
		if null {
			bitmap[i/8] |= 1 << uint(i%8)
		}
	}
	buf.Write(bitmap)
}

func readNulls(r *reader, n int) ([]bool, error) {
	marker, err := r.byte()
	if err != nil || marker == 0 {
		return nil, err
	}
	bitmap, err := r.take(uint64(n+7) / 8)
	if err != nil {
		return nil, err
	}
	nulls := make([]bool, n)
	for i := range nulls {
		nulls[i] = bitmap[i/8]&(1<<uint(i%8)) != 0
	}
	return nulls, nil
}

// decodePlain decodes a plain chunk's n values into a vector of their own,
// never aliasing r's bytes: an INTEGER or FLOAT chunk is one copy of its
// 8n bytes (decodeWords), a VARCHAR chunk one copy of its region with every
// value a substring of it, a BOOLEAN chunk one byte a value.
func decodePlain(r *reader, t types.Type, n int, nulls []bool) (Column, error) {
	switch t {
	case types.Int64:
		p, err := r.take(8 * uint64(n))
		if err != nil {
			return nil, err
		}
		return &Int64Column{Vals: decodeWords[int64](p), Nulls: nulls}, nil
	case types.Float64:
		p, err := r.take(8 * uint64(n))
		if err != nil {
			return nil, err
		}
		return &Float64Column{Vals: decodeWords[float64](p), Nulls: nulls}, nil
	case types.Varchar:
		// One copy of the whole region; every value is a substring of it.
		blob := string(r.b)
		vals := make([]string, n)
		for i := range vals {
			ln, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			off := len(blob) - len(r.b)
			if _, err := r.take(ln); err != nil {
				return nil, err
			}
			vals[i] = blob[off : off+int(ln)]
		}
		return &StringColumn{Vals: vals, Nulls: nulls}, nil
	case types.Bool:
		p, err := r.take(uint64(n))
		if err != nil {
			return nil, err
		}
		vals := make([]bool, n)
		for i := range vals {
			vals[i] = p[i] != 0
		}
		return &BoolColumn{Vals: vals, Nulls: nulls}, nil
	default:
		return nil, corruptf("plain decoding unsupported for %v", t)
	}
}

// encodeRLE writes (varint runLength, value) pairs. NULL participates in runs
// via the bitmap, so values at NULL positions are encoded as the zero value.
func encodeRLE(buf *bytes.Buffer, c Column) error {
	n := c.Len()
	i := 0
	for i < n {
		j := i + 1
		for j < n && sameRun(c, i, j) {
			j++
		}
		writeUvarint(buf, uint64(j-i))
		switch col := c.(type) {
		case *Int64Column:
			writeVarint(buf, col.Vals[i])
		case *Float64Column:
			var tmp [8]byte
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(col.Vals[i]))
			buf.Write(tmp[:])
		case *StringColumn:
			writeUvarint(buf, uint64(len(col.Vals[i])))
			buf.WriteString(col.Vals[i])
		case *BoolColumn:
			if col.Vals[i] {
				buf.WriteByte(1)
			} else {
				buf.WriteByte(0)
			}
		default:
			return fmt.Errorf("storage: RLE encoding unsupported for %T", c)
		}
		i = j
	}
	return nil
}

func sameRun(c Column, i, j int) bool {
	switch col := c.(type) {
	case *Int64Column:
		return col.Vals[i] == col.Vals[j]
	case *Float64Column:
		return math.Float64bits(col.Vals[i]) == math.Float64bits(col.Vals[j])
	case *StringColumn:
		return col.Vals[i] == col.Vals[j]
	case *BoolColumn:
		return col.Vals[i] == col.Vals[j]
	default:
		return false
	}
}

func decodeRLE(r *reader, t types.Type, n int, nulls []bool) (Column, error) {
	read := 0
	var intVals []int64
	var floatVals []float64
	var strVals []string
	var boolVals []bool
	for read < n {
		run64, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if run64 == 0 || run64 > uint64(n-read) {
			return nil, corruptf("bad RLE run length %d at row %d/%d", run64, read, n)
		}
		run := int(run64)
		switch t {
		case types.Int64:
			v, err := r.varint()
			if err != nil {
				return nil, err
			}
			for k := 0; k < run; k++ {
				intVals = append(intVals, v)
			}
		case types.Float64:
			p, err := r.take(8)
			if err != nil {
				return nil, err
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(p))
			for k := 0; k < run; k++ {
				floatVals = append(floatVals, v)
			}
		case types.Varchar:
			v, err := r.str()
			if err != nil {
				return nil, err
			}
			for k := 0; k < run; k++ {
				strVals = append(strVals, v)
			}
		case types.Bool:
			bb, err := r.byte()
			if err != nil {
				return nil, err
			}
			for k := 0; k < run; k++ {
				boolVals = append(boolVals, bb != 0)
			}
		default:
			return nil, corruptf("RLE decoding unsupported for %v", t)
		}
		read += run
	}
	switch t {
	case types.Int64:
		return &Int64Column{Vals: intVals, Nulls: nulls}, nil
	case types.Float64:
		return &Float64Column{Vals: floatVals, Nulls: nulls}, nil
	case types.Varchar:
		return &StringColumn{Vals: strVals, Nulls: nulls}, nil
	default:
		return &BoolColumn{Vals: boolVals, Nulls: nulls}, nil
	}
}

func encodeDelta(buf *bytes.Buffer, c Column) error {
	col, ok := c.(*Int64Column)
	if !ok {
		return fmt.Errorf("storage: delta encoding requires INTEGER column, got %T", c)
	}
	prev := int64(0)
	for _, v := range col.Vals {
		writeVarint(buf, v-prev)
		prev = v
	}
	return nil
}

func decodeDelta(r *reader, t types.Type, n int, nulls []bool) (Column, error) {
	if t != types.Int64 {
		return nil, corruptf("delta decoding requires INTEGER, got %v", t)
	}
	vals := make([]int64, n)
	prev := int64(0)
	for i := range vals {
		d, err := r.varint()
		if err != nil {
			return nil, err
		}
		prev += d
		vals[i] = prev
	}
	return &Int64Column{Vals: vals, Nulls: nulls}, nil
}

func encodeDict(buf *bytes.Buffer, c Column) error {
	col, ok := c.(*StringColumn)
	if !ok {
		return fmt.Errorf("storage: dict encoding requires VARCHAR column, got %T", c)
	}
	codes := make(map[string]uint64, 64)
	var dict []string
	for _, s := range col.Vals {
		if _, ok := codes[s]; !ok {
			codes[s] = uint64(len(dict))
			dict = append(dict, s)
		}
	}
	writeUvarint(buf, uint64(len(dict)))
	for _, s := range dict {
		writeUvarint(buf, uint64(len(s)))
		buf.WriteString(s)
	}
	for _, s := range col.Vals {
		writeUvarint(buf, codes[s])
	}
	return nil
}

func decodeDict(r *reader, t types.Type, n int, nulls []bool) (Column, error) {
	if t != types.Varchar {
		return nil, corruptf("dict decoding requires VARCHAR, got %v", t)
	}
	dn, err := r.count(1)
	if err != nil {
		return nil, err
	}
	dict := make([]string, dn)
	for i := range dict {
		if dict[i], err = r.str(); err != nil {
			return nil, err
		}
	}
	vals := make([]string, n)
	for i := range vals {
		code, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if code >= uint64(dn) {
			return nil, corruptf("dict code %d out of range %d", code, dn)
		}
		vals[i] = dict[code]
	}
	return &StringColumn{Vals: vals, Nulls: nulls}, nil
}
