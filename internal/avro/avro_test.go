package avro

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

// The row-at-a-time codec the package started with, kept as the reference
// the block encoder and decoder are checked against: EncodeRow/DecodeRow box
// one types.Row per record and move every varint byte through an io.Reader,
// and refReadAll is the reader that went with them (a fresh inflater and a
// fresh buffer per block). Production runs none of this.

func writeLong(w *bytes.Buffer, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], zigzag(v))
	w.Write(tmp[:n])
}

func refReadLong(r io.ByteReader) (int64, error) {
	u, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, err
	}
	return unzigzag(u), nil
}

// EncodeRow appends the Avro binary encoding of a row (each field a
// ["null", primitive] union) to buf and returns the extended buffer.
func EncodeRow(buf []byte, r types.Row, s Schema) ([]byte, error) {
	if len(r) != len(s.Fields) {
		return nil, fmt.Errorf("avro: row has %d fields, schema has %d", len(r), len(s.Fields))
	}
	var b bytes.Buffer
	for i, f := range s.Fields {
		v := r[i]
		if v.Null {
			writeLong(&b, 0) // union branch 0: null
			continue
		}
		writeLong(&b, 1) // union branch 1: value
		switch f.Type {
		case types.Int64:
			writeLong(&b, v.AsInt())
		case types.Float64:
			var tmp [8]byte
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v.AsFloat()))
			b.Write(tmp[:])
		case types.Varchar:
			writeLong(&b, int64(len(v.S)))
			b.WriteString(v.S)
		case types.Bool:
			if v.AsBool() {
				b.WriteByte(1)
			} else {
				b.WriteByte(0)
			}
		default:
			return nil, fmt.Errorf("avro: unsupported field type %v", f.Type)
		}
	}
	return append(buf, b.Bytes()...), nil
}

// byteReader adapts an io.Reader providing ReadByte and bulk reads.
type byteReader struct {
	r   io.Reader
	one [1]byte
}

func (b *byteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(b.r, b.one[:]); err != nil {
		return 0, err
	}
	return b.one[0], nil
}

func (b *byteReader) ReadFull(p []byte) error {
	_, err := io.ReadFull(b.r, p)
	return err
}

// DecodeRow reads one row in Avro binary encoding.
func DecodeRow(r *byteReader, s Schema) (types.Row, error) {
	row := make(types.Row, len(s.Fields))
	for i, f := range s.Fields {
		branch, err := refReadLong(r)
		if err != nil {
			return nil, err
		}
		switch branch {
		case 0:
			row[i] = types.NullValue(f.Type)
			continue
		case 1:
		default:
			return nil, fmt.Errorf("avro: field %q: bad union branch %d", f.Name, branch)
		}
		switch f.Type {
		case types.Int64:
			v, err := refReadLong(r)
			if err != nil {
				return nil, err
			}
			row[i] = types.IntValue(v)
		case types.Float64:
			var tmp [8]byte
			if err := r.ReadFull(tmp[:]); err != nil {
				return nil, err
			}
			row[i] = types.FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(tmp[:])))
		case types.Varchar:
			n, err := refReadLong(r)
			if err != nil {
				return nil, err
			}
			if n < 0 || n > 1<<30 {
				return nil, fmt.Errorf("avro: field %q: bad string length %d", f.Name, n)
			}
			b := make([]byte, n)
			if err := r.ReadFull(b); err != nil {
				return nil, err
			}
			row[i] = types.StringValue(string(b))
		case types.Bool:
			c, err := r.ReadByte()
			if err != nil {
				return nil, err
			}
			row[i] = types.BoolValue(c != 0)
		default:
			return nil, fmt.Errorf("avro: unsupported field type %v", f.Type)
		}
	}
	return row, nil
}

// refReadAll decodes an OCF stream the way the package's first reader did.
func refReadAll(data []byte) (Schema, []types.Row, error) {
	br := &byteReader{r: bytes.NewReader(data)}
	head := make([]byte, 4)
	if err := br.ReadFull(head); err != nil || !bytes.Equal(head, magic) {
		return Schema{}, nil, fmt.Errorf("ref: bad magic %v (%v)", head, err)
	}
	field := func() ([]byte, error) {
		n, err := refReadLong(br)
		if err != nil {
			return nil, err
		}
		b := make([]byte, n)
		return b, br.ReadFull(b)
	}
	var schema Schema
	codec := CodecNull
	for {
		n, err := refReadLong(br)
		if err != nil {
			return Schema{}, nil, err
		}
		if n == 0 {
			break
		}
		for i := int64(0); i < n; i++ {
			key, err := field()
			if err != nil {
				return Schema{}, nil, err
			}
			val, err := field()
			if err != nil {
				return Schema{}, nil, err
			}
			switch string(key) {
			case "avro.schema":
				if schema, err = ParseSchema(val); err != nil {
					return Schema{}, nil, err
				}
			case "avro.codec":
				codec = Codec(val)
			}
		}
	}
	var fileSync [16]byte
	if err := br.ReadFull(fileSync[:]); err != nil {
		return Schema{}, nil, err
	}
	var rows []types.Row
	for {
		count, err := refReadLong(br)
		if err == io.EOF {
			return schema, rows, nil
		}
		if err != nil {
			return Schema{}, nil, err
		}
		size, err := refReadLong(br)
		if err != nil {
			return Schema{}, nil, err
		}
		block := make([]byte, size)
		if err := br.ReadFull(block); err != nil {
			return Schema{}, nil, err
		}
		var sync [16]byte
		if err := br.ReadFull(sync[:]); err != nil {
			return Schema{}, nil, err
		}
		if sync != fileSync {
			return Schema{}, nil, fmt.Errorf("ref: sync marker mismatch")
		}
		if codec == CodecDeflate {
			if block, err = io.ReadAll(flate.NewReader(bytes.NewReader(block))); err != nil {
				return Schema{}, nil, err
			}
		}
		blk := &byteReader{r: bytes.NewReader(block)}
		for ; count > 0; count-- {
			row, err := DecodeRow(blk, schema)
			if err != nil {
				return Schema{}, nil, err
			}
			rows = append(rows, row)
		}
	}
}

// refBlock is one block of a hand-built file: its rows, and the record count
// its header claims (which a test may make lie).
type refBlock struct {
	rows  []types.Row
	count int64
}

// refOCF builds an OCF file from EncodeRow records, each block deflated by
// its own fresh DefaultCompression stream as the first writer did.
func refOCF(t testing.TB, s Schema, codec Codec, blocks []refBlock) []byte {
	t.Helper()
	schemaJSON, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	sync := []byte("0123456789abcdef")
	var b bytes.Buffer
	b.Write(magic)
	writeLong(&b, 2)
	for _, kv := range [][2]string{{"avro.schema", string(schemaJSON)}, {"avro.codec", string(codec)}} {
		writeLong(&b, int64(len(kv[0])))
		b.WriteString(kv[0])
		writeLong(&b, int64(len(kv[1])))
		b.WriteString(kv[1])
	}
	writeLong(&b, 0)
	b.Write(sync)
	for _, blk := range blocks {
		var data []byte
		for _, r := range blk.rows {
			if data, err = EncodeRow(data, r, s); err != nil {
				t.Fatal(err)
			}
		}
		if codec == CodecDeflate {
			var cb bytes.Buffer
			fw, _ := flate.NewWriter(&cb, flate.DefaultCompression)
			fw.Write(data)
			fw.Close()
			data = cb.Bytes()
		}
		writeLong(&b, blk.count)
		writeLong(&b, int64(len(data)))
		b.Write(data)
		b.Write(sync)
	}
	return b.Bytes()
}

var testSchema = Schema{Name: "row", Fields: []Field{
	{Name: "id", Type: types.Int64},
	{Name: "x", Type: types.Float64},
	{Name: "name", Type: types.Varchar},
	{Name: "ok", Type: types.Bool},
}}

var testRows = []types.Row{
	{types.IntValue(1), types.FloatValue(0.5), types.StringValue("hello"), types.BoolValue(true)},
	{types.IntValue(-1 << 40), types.NullValue(types.Float64), types.StringValue(""), types.BoolValue(false)},
	{types.NullValue(types.Int64), types.FloatValue(math.Pi), types.NullValue(types.Varchar), types.NullValue(types.Bool)},
}

func rowsEqual(a, b types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Null != b[i].Null {
			return false
		}
		if !a[i].Null && types.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, -1, 1, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("zigzag round-trip %d -> %d", v, got)
		}
	}
}

func TestSchemaJSONRoundTrip(t *testing.T) {
	data, err := json.Marshal(testSchema)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSchema(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Fields) != 4 || got.Fields[1].Type != types.Float64 {
		t.Errorf("parsed schema = %+v", got)
	}
}

func TestSchemaTypesConversion(t *testing.T) {
	ts := types.NewSchema(types.Column{Name: "a", T: types.Int64}, types.Column{Name: "b", T: types.Varchar})
	s := FromTypes(ts)
	if !s.ToTypes().Equal(ts) {
		t.Error("FromTypes/ToTypes round-trip failed")
	}
}

func TestRowBinaryRoundTrip(t *testing.T) {
	for _, r := range testRows {
		data, err := EncodeRow(nil, r, testSchema)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRow(&byteReader{r: bytes.NewReader(data)}, testSchema)
		if err != nil {
			t.Fatal(err)
		}
		if !rowsEqual(r, got) {
			t.Errorf("round-trip: %v -> %v", r, got)
		}
	}
}

// headerCodec is the codec a file's header names.
func headerCodec(t *testing.T, data []byte) Codec {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return r.codec
}

func TestOCFRoundTrip(t *testing.T) {
	for _, codec := range []Codec{CodecNull, CodecDeflate} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, testSchema, codec, 2) // small blocks to exercise boundaries
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range testRows {
			if err := w.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := headerCodec(t, buf.Bytes()); got != codec {
			t.Errorf("codec %s: header avro.codec = %q", codec, got)
		}
		schema, rows, err := ReadAll(&buf)
		if err != nil {
			t.Fatalf("codec %s: %v", codec, err)
		}
		if !schema.ToTypes().Equal(testSchema.ToTypes()) {
			t.Errorf("codec %s: schema mismatch", codec)
		}
		if len(rows) != len(testRows) {
			t.Fatalf("codec %s: %d rows, want %d", codec, len(rows), len(testRows))
		}
		for i := range rows {
			if !rowsEqual(rows[i], testRows[i]) {
				t.Errorf("codec %s row %d: %v != %v", codec, i, rows[i], testRows[i])
			}
		}
	}
}

func TestOCFEmptyFile(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testSchema, CodecNull, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, rows, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("empty file yielded %d rows", len(rows))
	}
}

func TestOCFDeflateCompresses(t *testing.T) {
	s := Schema{Name: "row", Fields: []Field{{Name: "s", Type: types.Varchar}}}
	row := types.Row{types.StringValue("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa")}
	size := func(codec Codec) int {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, s, codec, 0)
		for i := 0; i < 1000; i++ {
			if err := w.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	if nd, dd := size(CodecNull), size(CodecDeflate); dd >= nd/2 {
		t.Errorf("deflate (%d) should be much smaller than null (%d) on repetitive data", dd, nd)
	}
}

func TestOCFBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should fail")
	}
}

func TestOCFTruncated(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testSchema, CodecNull, 0)
	for _, r := range testRows {
		_ = w.Append(r)
	}
	_ = w.Close()
	data := buf.Bytes()
	r, err := NewReader(bytes.NewReader(data[:len(data)-4]))
	if err == nil {
		for {
			if _, _, err = r.ReadBlock(); err != nil {
				break
			}
		}
	}
	if err == nil || err == io.EOF {
		t.Error("truncated file should surface an error")
	}
}

func TestRowBinaryQuick(t *testing.T) {
	s := Schema{Name: "row", Fields: []Field{{Name: "a", Type: types.Int64}, {Name: "b", Type: types.Varchar}}}
	f := func(a int64, b string) bool {
		r := types.Row{types.IntValue(a), types.StringValue(b)}
		data, err := EncodeRow(nil, r, s)
		if err != nil {
			return false
		}
		got, err := DecodeRow(&byteReader{r: bytes.NewReader(data)}, s)
		return err == nil && got[0].I == a && got[1].S == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeRowSchemaMismatch(t *testing.T) {
	if _, err := EncodeRow(nil, types.Row{types.IntValue(1)}, testSchema); err == nil {
		t.Error("short row should fail")
	}
}

// sameCell is exact cell equality: kind, NULL-ness, and the value bit for bit
// (so -0, infinities and NaN payloads count).
func sameCell(a, b types.Value) bool {
	if a.T != b.T || a.Null != b.Null {
		return false
	}
	return a.Null || a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S && a.B == b.B
}

func sameRows(t *testing.T, what string, got, want []types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if !sameCell(got[i][j], want[i][j]) {
				t.Fatalf("%s: row %d col %d = %#v, want %#v", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// readBlocks decodes data block by block and boxes the vectors.
func readBlocks(data []byte) ([]types.Row, error) {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var rows []types.Row
	for {
		cols, n, err := r.ReadBlock()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return nil, err
		}
		for _, c := range cols {
			if c.Len() != n {
				return nil, fmt.Errorf("vector of %d rows in a block of %d", c.Len(), n)
			}
		}
		for i := 0; i < n; i++ {
			row := make(types.Row, len(cols))
			for j, c := range cols {
				row[j] = c.Get(i)
			}
			rows = append(rows, row)
		}
	}
}

func randomSchema(rng *rand.Rand) Schema {
	kinds := []types.Type{types.Int64, types.Float64, types.Varchar, types.Bool}
	s := Schema{Name: "row"}
	for i, n := 0, 1+rng.Intn(6); i < n; i++ {
		s.Fields = append(s.Fields, Field{Name: fmt.Sprintf("c%d", i), Type: kinds[rng.Intn(len(kinds))]})
	}
	return s
}

func randomRows(rng *rand.Rand, s Schema, n int) []types.Row {
	ints := []int64{0, -1, 1, math.MaxInt64, math.MinInt64, 63, 64, -64, -65}
	floats := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64}
	nullPct := []int{0, 30, 90}[rng.Intn(3)]
	rows := make([]types.Row, n)
	for i := range rows {
		row := make(types.Row, len(s.Fields))
		for j, f := range s.Fields {
			if rng.Intn(100) < nullPct {
				row[j] = types.NullValue(f.Type)
				continue
			}
			switch f.Type {
			case types.Int64:
				if rng.Intn(4) == 0 {
					row[j] = types.IntValue(ints[rng.Intn(len(ints))])
				} else {
					row[j] = types.IntValue(rng.Int63() >> uint(rng.Intn(64)) * int64(1-2*rng.Intn(2)))
				}
			case types.Float64:
				if rng.Intn(4) == 0 {
					row[j] = types.FloatValue(floats[rng.Intn(len(floats))])
				} else {
					row[j] = types.FloatValue(rng.NormFloat64() * 1e6)
				}
			case types.Varchar:
				row[j] = types.StringValue(strings.Repeat("é\x00z", rng.Intn(4)*rng.Intn(12)))
			case types.Bool:
				row[j] = types.BoolValue(rng.Intn(2) == 0)
			}
		}
		rows[i] = row
	}
	return rows
}

// The block writer and the block decoder against the row-at-a-time
// reference, in both directions, over random schemas and block boundaries.
func TestBlockCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const blockRows = 7
	for iter := 0; iter < 60; iter++ {
		s := randomSchema(rng)
		kinds, err := fieldKinds(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, blockRows - 1, blockRows, blockRows + 1, 3*blockRows + 2} {
			rows := randomRows(rng, s, n)
			for _, r := range rows {
				want, err := EncodeRow(nil, r, s)
				if err != nil {
					t.Fatal(err)
				}
				if got := appendRow(nil, r, kinds); !bytes.Equal(got, want) {
					t.Fatalf("schema %v row %v: record bytes %x, reference %x", s, r, got, want)
				}
			}
			for _, codec := range []Codec{CodecNull, CodecDeflate} {
				what := fmt.Sprintf("schema %v, %d rows, %s", s, n, codec)

				var buf bytes.Buffer
				w, err := NewWriter(&buf, s, codec, blockRows)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range rows {
					if err := w.Append(r); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				if got := headerCodec(t, buf.Bytes()); got != codec {
					t.Errorf("%s: header avro.codec = %q", what, got)
				}
				_, got, err := refReadAll(buf.Bytes())
				if err != nil {
					t.Fatalf("%s: reference reader on the block writer's file: %v", what, err)
				}
				sameRows(t, what+": writer -> reference reader", got, rows)

				var blocks []refBlock
				for lo := 0; lo < n; lo += blockRows {
					blk := rows[lo:min(lo+blockRows, n)]
					blocks = append(blocks, refBlock{rows: blk, count: int64(len(blk))})
				}
				file := refOCF(t, s, codec, blocks)
				for name, decode := range map[string]func([]byte) ([]types.Row, error){
					"ReadBlock": readBlocks,
					"ReadAll": func(b []byte) ([]types.Row, error) {
						_, rows, err := ReadAll(bytes.NewReader(b))
						return rows, err
					},
				} {
					got, err := decode(file)
					if err != nil {
						t.Fatalf("%s: %s on the reference file: %v", what, name, err)
					}
					sameRows(t, what+": reference file -> "+name, got, rows)
				}
			}
		}
	}
}

// A value of another kind than its field is written the way the reference
// writes it (through the Value accessors), not rejected and not reinterpreted.
func TestWriterConvertsDriftedKindsLikeReference(t *testing.T) {
	kinds, _ := fieldKinds(testSchema)
	row := types.Row{types.FloatValue(7.9), types.IntValue(-3), types.StringValue("s"), types.IntValue(2)}
	want, err := EncodeRow(nil, row, testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendRow(nil, row, kinds); !bytes.Equal(got, want) {
		t.Errorf("record bytes %x, reference %x", got, want)
	}
}

func goldenRows() []types.Row {
	var rows []types.Row
	for i := 0; i < 10; i++ {
		r := types.Row{
			types.IntValue(int64(i)*1_000_003 - 4_000_000),
			types.FloatValue(float64(i)*math.Pi - 7.25),
			types.StringValue(fmt.Sprintf("row-%d", i)),
			types.BoolValue(i%3 == 0),
		}
		if i%4 == 1 {
			r[0] = types.NullValue(types.Int64)
			r[2] = types.StringValue("")
		}
		if i%4 == 2 {
			r[1] = types.NullValue(types.Float64)
			r[3] = types.NullValue(types.Bool)
		}
		if i == 7 {
			r[2] = types.NullValue(types.Varchar)
		}
		rows = append(rows, r)
	}
	return rows
}

func goldenFile(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/parent_deflate.avro")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// testdata/parent_deflate.avro was written by the row-at-a-time writer at
// commit 579c79c (testSchema, goldenRows, deflate at DefaultCompression from a
// fresh stream per block, 4 rows per block): files already on disk or in
// flight from an older client stay readable.
func TestGoldenFileFromRowWriter(t *testing.T) {
	data := goldenFile(t)
	schema, rows, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !schema.ToTypes().Equal(testSchema.ToTypes()) {
		t.Errorf("schema = %v", schema)
	}
	sameRows(t, "ReadAll", rows, goldenRows())
	blocks, err := readBlocks(data)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "ReadBlock", blocks, goldenRows())
}

func sixRows() []types.Row { return append(append([]types.Row(nil), testRows...), testRows...) }

// lyingCountFile is six rows in two 3-row blocks whose first block claims
// count records.
func lyingCountFile(t testing.TB, codec Codec, count int64) []byte {
	six := sixRows()
	return refOCF(t, testSchema, codec, []refBlock{{rows: six[:3], count: count}, {rows: six[3:], count: 3}})
}

// A block whose record count disagrees with its bytes fails the read. The
// row-at-a-time reader took "4 records" over 3 records' bytes for a clean end
// of file (3 rows, nil error, second block never read) and "2 records" as a
// licence to drop the third.
func TestBlockCountMustMatchBytes(t *testing.T) {
	for _, codec := range []Codec{CodecNull, CodecDeflate} {
		for _, count := range []int64{4, 2, 0, -3, math.MaxInt64, math.MinInt64} {
			data := lyingCountFile(t, codec, count)
			for name, decode := range map[string]func([]byte) ([]types.Row, error){
				"ReadBlock": readBlocks,
				"ReadAll": func(b []byte) ([]types.Row, error) {
					_, rows, err := ReadAll(bytes.NewReader(b))
					return rows, err
				},
			} {
				rows, err := decode(data)
				if err == nil || err == io.EOF || !strings.HasPrefix(err.Error(), "avro:") {
					t.Errorf("%s, count %d over 3 records, %s: %d rows, err %v; want an avro: error", codec, count, name, len(rows), err)
				}
			}
		}
		if rows, err := readBlocks(lyingCountFile(t, codec, 3)); err != nil || len(rows) != 6 {
			t.Errorf("%s, honest count: %d rows, err %v", codec, len(rows), err)
		}
	}
}

// Sizes read from the stream are checked before anything is sized from them.
func TestReaderBoundsStreamSizes(t *testing.T) {
	valid := lyingCountFile(t, CodecNull, 3)
	header := valid[:bytes.Index(valid, []byte("0123456789abcdef"))+16]
	block := func(count, size int64, body []byte) []byte {
		var b bytes.Buffer
		b.Write(header)
		writeLong(&b, count)
		writeLong(&b, size)
		b.Write(body)
		return b.Bytes()
	}
	bomb := func() []byte { // 17 MiB of zeros, deflated to a few KiB
		var cb bytes.Buffer
		fw, _ := flate.NewWriter(&cb, flate.BestCompression)
		fw.Write(make([]byte, maxBlockBytes+1<<20))
		fw.Close()
		return append(cb.Bytes(), "0123456789abcdef"...)
	}()
	deflateHeader := func() []byte {
		f := lyingCountFile(t, CodecDeflate, 3)
		return f[:bytes.Index(f, []byte("0123456789abcdef"))+16]
	}()
	for name, data := range map[string][]byte{
		"size past the bound":     block(1, maxBlockBytes+1, nil),
		"negative size":           block(1, -1, nil),
		"size the stream lacks":   block(1, maxBlockBytes, []byte("abc")),
		"count past the bytes":    block(1<<40, 4, []byte("\x00\x00\x00\x000123456789abcdef")),
		"stream ends after count": block(3, 0, nil)[:len(header)+1],
		"deflate bomb": func() []byte {
			var b bytes.Buffer
			b.Write(deflateHeader)
			writeLong(&b, 1)
			writeLong(&b, int64(len(bomb)-16))
			b.Write(bomb)
			return b.Bytes()
		}(),
		"metadata value past the bound": func() []byte {
			var b bytes.Buffer
			b.Write(magic)
			writeLong(&b, 1)
			writeLong(&b, 1)
			b.WriteString("k")
			writeLong(&b, maxHeaderField+1)
			return b.Bytes()
		}(),
	} {
		var before, after runtimeMem
		before.read()
		_, err := readBlocks(data)
		after.read()
		if err == nil || err == io.EOF || !strings.HasPrefix(err.Error(), "avro:") {
			t.Errorf("%s: err %v, want an avro: error", name, err)
		}
		// The bomb is stopped by the inflate cap (its error says so) after
		// filling the buffer up to it; nothing else may cost more than the
		// few bytes the stream really holds.
		if name == "deflate bomb" {
			if !strings.Contains(err.Error(), "inflates past") {
				t.Errorf("deflate bomb: err %v, want the inflate cap", err)
			}
		} else if got := after.total - before.total; got > 1<<20 {
			t.Errorf("%s: allocated %d bytes on a %d-byte stream", name, got, len(data))
		}
	}
}

// A 10 000-row deflated file decodes in a fixed number of allocations per
// block — the vectors, and the inflater's Huffman tables — and nothing per row.
func TestReadBlockAllocsPerBlockNotPerRow(t *testing.T) {
	s := Schema{Name: "row", Fields: []Field{{Name: "a", Type: types.Int64}, {Name: "b", Type: types.Float64}, {Name: "c", Type: types.Varchar}}}
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, s, CodecDeflate, 1000)
	for i := 0; i < 10000; i++ {
		if err := w.Append(types.Row{types.IntValue(int64(i)), types.FloatValue(float64(i) / 3), types.StringValue("name")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The bound below is the inflater's: a file the writer sent raw would
	// pass it without exercising inflate at all.
	if got := headerCodec(t, buf.Bytes()); got != CodecDeflate {
		t.Fatalf("header avro.codec = %q, want deflate", got)
	}
	allocs := testing.AllocsPerRun(5, func() {
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, _, err := r.ReadBlock(); err != nil {
				break
			}
		}
	})
	if allocs > 1000 {
		t.Errorf("%.0f allocations to decode 10 blocks of 1000 rows", allocs)
	}
}

// FuzzAvroReader feeds the OCF reader arbitrary bytes: it must not panic,
// must not size a block's vectors past what maxBlockBytes allows, and must
// either fail or decode — by blocks and by rows — to the same rows twice.
func FuzzAvroReader(f *testing.F) {
	f.Add(goldenFile(f))
	for _, codec := range []Codec{CodecNull, CodecDeflate} {
		f.Add(refOCF(f, testSchema, codec, nil))
		f.Add(lyingCountFile(f, codec, 3))
		f.Add(lyingCountFile(f, codec, 4))
		f.Add(lyingCountFile(f, codec, 2))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var rows []types.Row
		for {
			cols, n, err := r.ReadBlock()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !strings.HasPrefix(err.Error(), "avro:") {
					t.Fatalf("ReadBlock error outside the package's namespace: %v", err)
				}
				if _, _, again := ReadAll(bytes.NewReader(data)); again == nil {
					t.Fatalf("ReadBlock failed (%v) where ReadAll decoded the file", err)
				}
				return
			}
			if n <= 0 || n*len(cols) > maxBlockBytes {
				t.Fatalf("block of %d rows x %d fields", n, len(cols))
			}
			rows = append(rows, storage.Materialize([]*storage.Batch{{Cols: cols, Sel: storage.IdentitySel(n)}})...)
		}
		_, again, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("ReadBlock decoded %d rows, ReadAll failed: %v", len(rows), err)
		}
		sameRows(t, "ReadAll vs ReadBlock", again, rows)
	})
}

// runtimeMem is the process's cumulative allocated bytes.
type runtimeMem struct{ total uint64 }

func (m *runtimeMem) read() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.total = ms.TotalAlloc
}
