package avro

import (
	"encoding/binary"
	"fmt"
	"math"

	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

// zigzag encodes a signed integer the Avro way.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendLong appends an Avro long (zigzag varint).
func appendLong(buf []byte, v int64) []byte { return binary.AppendUvarint(buf, zigzag(v)) }

// The two branches of a ["null", primitive] union, as the one byte their
// zigzag varints take.
const (
	branchNull  = 0 // zigzag(0)
	branchValue = 2 // zigzag(1)
)

// fieldKinds resolves a schema into the per-field value kinds the row encoder
// and the block decoder switch on, rejecting kinds Avro has no primitive for.
func fieldKinds(s Schema) ([]types.Type, error) {
	kinds := make([]types.Type, len(s.Fields))
	for i, f := range s.Fields {
		if _, err := avroPrimitive(f.Type); err != nil {
			return nil, err
		}
		kinds[i] = f.Type
	}
	return kinds, nil
}

// appendRow appends the Avro binary encoding of a row (each field a
// ["null", primitive] union) to buf. A value of another kind than its field
// is converted the way types.Value's accessors do.
func appendRow(buf []byte, r types.Row, kinds []types.Type) []byte {
	for i, t := range kinds {
		v := &r[i]
		if v.Null {
			buf = append(buf, branchNull)
			continue
		}
		buf = append(buf, branchValue)
		switch t {
		case types.Int64:
			x := v.I
			if v.T != types.Int64 {
				x = v.AsInt()
			}
			buf = appendLong(buf, x)
		case types.Float64:
			x := v.F
			if v.T != types.Float64 {
				x = v.AsFloat()
			}
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		case types.Varchar:
			buf = appendLong(buf, int64(len(v.S)))
			buf = append(buf, v.S...)
		case types.Bool:
			x := v.B
			if v.T != types.Bool {
				x = v.AsBool()
			}
			if x {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	return buf
}

// fieldDec is one field's share of the block decoder: the vector being
// filled, and for strings the scratch the cells pass through — their bytes
// are collected in one arena per block and cut from its single string copy
// once the block is decoded, so a text column costs two allocations per
// block, not one per cell.
type fieldDec struct {
	name string
	t    types.Type

	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	nulls  []bool // nil until the block's first NULL

	arena []byte  // reused across blocks
	ends  []int32 // arena offset after each cell; reused across blocks
}

// start sizes the field's vector for a block of n rows.
func (d *fieldDec) start(n int) {
	d.nulls = nil
	switch d.t {
	case types.Int64:
		d.ints = make([]int64, n)
	case types.Float64:
		d.floats = make([]float64, n)
	case types.Varchar:
		d.strs = make([]string, n)
		d.arena = d.arena[:0]
		if cap(d.ends) < n {
			d.ends = make([]int32, n)
		}
		d.ends = d.ends[:n]
	case types.Bool:
		d.bools = make([]bool, n)
	}
}

// setNull marks row i of the n-row block NULL; its value stays the zero value.
func (d *fieldDec) setNull(i, n int) {
	if d.nulls == nil {
		d.nulls = make([]bool, n)
	}
	d.nulls[i] = true
	if d.t == types.Varchar {
		d.ends[i] = int32(len(d.arena))
	}
}

// column hands the filled vector over; the decoder keeps no reference to it.
func (d *fieldDec) column() storage.Column {
	switch d.t {
	case types.Int64:
		return &storage.Int64Column{Vals: d.ints, Nulls: d.nulls}
	case types.Float64:
		return &storage.Float64Column{Vals: d.floats, Nulls: d.nulls}
	case types.Varchar:
		blob, prev := string(d.arena), int32(0)
		for i, end := range d.ends {
			d.strs[i], prev = blob[prev:end], end
		}
		return &storage.StringColumn{Vals: d.strs, Nulls: d.nulls}
	default:
		return &storage.BoolColumn{Vals: d.bools, Nulls: d.nulls}
	}
}

// decodeBlock decodes a block's n records from data into one dense vector
// per field. The block must hold exactly n records: running out of bytes
// early and having bytes left over are both errors, never a short result.
// The caller has bounded n by len(data), so the vectors cost no more than
// the bytes that back them.
func decodeBlock(data []byte, n int, fields []fieldDec) ([]storage.Column, error) {
	for j := range fields {
		fields[j].start(n)
	}
	pos := 0
	short := func(i int, d *fieldDec) error {
		return fmt.Errorf("avro: record %d of %d is cut short or malformed at field %q", i, n, d.name)
	}
	for i := 0; i < n; i++ {
		for j := range fields {
			d := &fields[j]
			if pos >= len(data) {
				return nil, short(i, d)
			}
			switch b := data[pos]; b {
			case branchValue:
				pos++
			case branchNull:
				pos++
				d.setNull(i, n)
				continue
			default:
				// A branch index that is wrong, or oddly spelled.
				u, k := binary.Uvarint(data[pos:])
				if k <= 0 {
					return nil, short(i, d)
				}
				pos += k
				switch branch := unzigzag(u); branch {
				case 0:
					d.setNull(i, n)
					continue
				case 1:
				default:
					return nil, fmt.Errorf("avro: field %q: bad union branch %d", d.name, branch)
				}
			}
			switch d.t {
			case types.Int64:
				u, k := binary.Uvarint(data[pos:])
				if k <= 0 {
					return nil, short(i, d)
				}
				pos += k
				d.ints[i] = unzigzag(u)
			case types.Float64:
				if len(data)-pos < 8 {
					return nil, short(i, d)
				}
				d.floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
				pos += 8
			case types.Varchar:
				u, k := binary.Uvarint(data[pos:])
				if k <= 0 {
					return nil, short(i, d)
				}
				pos += k
				ln := unzigzag(u)
				if ln < 0 || ln > int64(len(data)-pos) {
					return nil, fmt.Errorf("avro: field %q: string of %d bytes in record %d, %d bytes left in the block",
						d.name, ln, i, len(data)-pos)
				}
				d.arena = append(d.arena, data[pos:pos+int(ln)]...)
				d.ends[i] = int32(len(d.arena))
				pos += int(ln)
			case types.Bool:
				if pos >= len(data) {
					return nil, short(i, d)
				}
				d.bools[i] = data[pos] != 0
				pos++
			}
		}
	}
	if pos != len(data) {
		return nil, fmt.Errorf("avro: block count says %d records, %d bytes follow them", n, len(data)-pos)
	}
	cols := make([]storage.Column, len(fields))
	for j := range fields {
		cols[j] = fields[j].column()
	}
	return cols, nil
}
