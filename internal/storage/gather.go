package storage

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"vsfabric/internal/types"
)

// AppendBatches appends to dst the rows the batches select, in order, as one
// row block: schema, row count, then one length-prefixed plain chunk per
// column (plainChunk). It is the one writer of the layout DecodeColumns reads
// — WAL insert and delete records, data-collector records, wire frames and
// HDFS files. Values are gathered through each selection vector straight from
// the column vectors into dst, which is grown once to the exact encoded size:
// no row is boxed and no intermediate column is built. Every batch must carry
// one column per schema column, of that column's type.
func AppendBatches(dst []byte, schema types.Schema, batches []*Batch) ([]byte, error) {
	n := SelectedRows(batches)
	dst = appendSchema(dst, schema)
	dst = binary.AppendUvarint(dst, uint64(n))
	if n == 0 {
		return dst, nil
	}
	// Size every chunk first: a chunk's length prefix precedes it, and the
	// sum sizes the one allocation.
	chunks, total := make([]plainChunk, len(schema.Cols)), 0
	reads := make([]colRead, len(schema.Cols)*len(batches))
	for j, c := range schema.Cols {
		src := reads[j*len(batches) : (j+1)*len(batches)]
		if err := columnReads(src, batches, j, c.T); err != nil {
			return nil, err
		}
		var err error
		if chunks[j], err = sizePlain(c.T, n, src); err != nil {
			return nil, err
		}
		total += uvarintLen(uint64(chunks[j].size)) + chunks[j].size
	}
	dst = slices.Grow(dst, total)
	for _, ch := range chunks {
		dst = binary.AppendUvarint(dst, uint64(ch.size))
		dst = ch.appendTo(dst)
	}
	return dst, nil
}

// plainChunk is a column chunk in the plain encoding, sized before it is
// written: [type][encPlain][uvarint rows][NULL marker, then the packed bitmap
// if any row is NULL][values: 8 bytes per INTEGER or FLOAT, 1 per BOOLEAN, a
// uvarint length and the bytes per VARCHAR].
type plainChunk struct {
	t       types.Type
	n, size int
	anyNull bool
	src     []colRead
}

// sizePlain sizes the plain chunk of the n rows src reads.
func sizePlain(t types.Type, n int, src []colRead) (plainChunk, error) {
	payload, anyNull, err := gatherSize(src)
	if err != nil {
		return plainChunk{}, err
	}
	size := 2 + uvarintLen(uint64(n)) + 1 + payload // type, encoding, row count, null marker
	if anyNull {
		size += (n + 7) / 8
	}
	return plainChunk{t, n, size, anyNull, src}, nil
}

// appendTo appends the chunk to dst.
func (ch plainChunk) appendTo(dst []byte) []byte {
	dst = slices.Grow(dst, ch.size)
	end := len(dst) + ch.size
	dst = append(dst, byte(ch.t), byte(encPlain))
	dst = binary.AppendUvarint(dst, uint64(ch.n))
	if dst = append(dst, 0); ch.anyNull {
		dst[len(dst)-1] = 1
		dst = dst[:len(dst)+(ch.n+7)/8]
		gatherNulls(dst[len(dst)-(ch.n+7)/8:], ch.src)
	}
	gatherValues(dst[len(dst):end], ch.src)
	return dst[:end]
}

// colRead is what one batch's column reads: a vector and the positions of it,
// in row order.
type colRead struct {
	col Column
	sel []int32
}

// readOf is what a column read at sel reads: the column itself, or — for a
// DictColumn — its dictionary at the codes of the selected rows.
func readOf(c Column, sel []int32) colRead {
	if d, ok := c.(*DictColumn); ok {
		return colRead{d.Dict, appendSel(nil, d.Codes, sel)}
	}
	return colRead{c, sel}
}

// columnReads fills src[k] with what column j of batch k reads.
func columnReads(src []colRead, batches []*Batch, j int, t types.Type) error {
	for k, b := range batches {
		if j >= len(b.Cols) || b.Cols[j].Type() != t {
			return fmt.Errorf("storage: batch column %d does not fit its %v schema column", j, t)
		}
		src[k] = readOf(b.Cols[j], b.Sel)
	}
	return nil
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// nullsOf returns a dense column's NULL flags (nil: none, or not dense).
func nullsOf(c Column) []bool {
	switch c := c.(type) {
	case *Int64Column:
		return c.Nulls
	case *Float64Column:
		return c.Nulls
	case *StringColumn:
		return c.Nulls
	case *BoolColumn:
		return c.Nulls
	}
	return nil
}

// gatherSize returns the plain-encoded payload size of a column's selected
// values and whether any of them is NULL.
func gatherSize(src []colRead) (payload int, anyNull bool, err error) {
	for _, r := range src {
		switch c := r.col.(type) {
		case *Int64Column, *Float64Column:
			payload += 8 * len(r.sel)
		case *BoolColumn:
			payload += len(r.sel)
		case *StringColumn:
			for _, i := range r.sel {
				payload += uvarintLen(uint64(len(c.Vals[i]))) + len(c.Vals[i])
			}
		default:
			return 0, false, fmt.Errorf("storage: cannot encode column kind %T", c)
		}
		nulls := nullsOf(r.col)
		for k := 0; nulls != nil && !anyNull && k < len(r.sel); k++ {
			anyNull = nulls[r.sel[k]]
		}
	}
	return payload, anyNull, nil
}

// gatherNulls fills the packed NULL bitmap of a column's selected rows.
func gatherNulls(bitmap []byte, src []colRead) {
	clear(bitmap)
	k := 0
	for _, r := range src {
		if nulls := nullsOf(r.col); nulls != nil {
			for o, i := range r.sel {
				if nulls[i] {
					bitmap[(k+o)/8] |= 1 << uint((k+o)%8)
				}
			}
		}
		k += len(r.sel)
	}
}

// gatherValues writes a column's selected values, plain-encoded, into p,
// which gatherSize sized for them. INTEGER and FLOAT values go through
// putWords, which copies each run of consecutive selected rows in one piece.
func gatherValues(p []byte, src []colRead) {
	for _, r := range src {
		if len(r.sel) == 0 {
			continue
		}
		switch c := r.col.(type) {
		case *Int64Column:
			putWords(p, words(c.Vals), r.sel)
			p = p[8*len(r.sel):]
		case *Float64Column:
			putWords(p, words(c.Vals), r.sel)
			p = p[8*len(r.sel):]
		case *BoolColumn:
			for k, i := range r.sel {
				p[k] = 0
				if c.Vals[i] {
					p[k] = 1
				}
			}
			p = p[len(r.sel):]
		case *StringColumn:
			for _, i := range r.sel {
				p = p[binary.PutUvarint(p, uint64(len(c.Vals[i]))):]
				p = p[copy(p, c.Vals[i]):]
			}
		}
	}
}

// DenseColumns returns one dense vector per schema column holding the rows the
// batches select, in order, and their count — the shape the write path takes
// rows in. It is the one bulk copy between vectors (a load's decoded blocks
// strung together, one target's share cut out of a load, a scan's batches
// made insertable), and no copy at all when a single batch of dense vectors
// selects every row it has through the shared identity selection: those
// vectors are returned as they are, shared.
// Every batch must carry one column per schema column, of that column's type.
func DenseColumns(schema types.Schema, batches []*Batch) ([]Column, int, error) {
	n := SelectedRows(batches)
	cols := make([]Column, schema.NumCols())
	whole := len(batches) == 1 && len(batches[0].Cols) == len(cols) && IsIdentity(batches[0].Sel)
	for j, sc := range schema.Cols {
		if whole && batches[0].Cols[j].Type() == sc.T && batches[0].Cols[j].Len() == n {
			cols[j] = Densify(batches[0].Cols[j])
			continue
		}
		b := NewBuilder(sc.T)
		b.Grow(n)
		for _, bt := range batches {
			if j >= len(bt.Cols) {
				return nil, 0, fmt.Errorf("storage: batch of %d columns under a %d-column schema", len(bt.Cols), len(cols))
			}
			if err := b.AppendColumn(bt.Cols[j], bt.Sel); err != nil {
				return nil, 0, fmt.Errorf("storage: column %d: %w", j, err)
			}
		}
		cols[j] = b.Build()
	}
	return cols, n, nil
}

// GatherRows builds one dense vector per column of a batch set, holding the
// values at refs (batch bi[k], physical row ri[k]) in order, without boxing a
// row. It is how a join materializes: the matched index pairs pick each
// side's columns straight out of its vectors, one typed copy per column into a
// vector of exactly len(bi) values, NULL flags carried. Column j takes the
// type of batches[0]'s column j, and every batch the refs read must carry a
// vector of that type there, as AppendBatches requires; a dictionary-coded
// one densifies once first.
func GatherRows(batches []*Batch, bi, ri []int32) ([]Column, error) {
	if len(batches) == 0 {
		return nil, nil
	}
	read := make([]bool, len(batches)) // the batches the refs name
	for _, b := range bi {
		read[b] = true
	}
	cols := make([]Column, len(batches[0].Cols))
	src := make([]Column, len(batches))
	for j := range cols {
		t := batches[0].Cols[j].Type()
		for b, bt := range batches {
			if read[b] {
				if bt.Cols[j].Type() != t {
					return nil, fmt.Errorf("storage: batch %d column %d is %v, want %v", b, j, bt.Cols[j].Type(), t)
				}
				src[b] = Densify(bt.Cols[j])
			}
		}
		switch t {
		case types.Int64:
			vals, nulls := gatherVec(src, bi, ri, func(c Column) ([]int64, []bool) { d := c.(*Int64Column); return d.Vals, d.Nulls })
			cols[j] = &Int64Column{Vals: vals, Nulls: nulls}
		case types.Float64:
			vals, nulls := gatherVec(src, bi, ri, func(c Column) ([]float64, []bool) { d := c.(*Float64Column); return d.Vals, d.Nulls })
			cols[j] = &Float64Column{Vals: vals, Nulls: nulls}
		case types.Varchar:
			vals, nulls := gatherVec(src, bi, ri, func(c Column) ([]string, []bool) { d := c.(*StringColumn); return d.Vals, d.Nulls })
			cols[j] = &StringColumn{Vals: vals, Nulls: nulls}
		case types.Bool:
			vals, nulls := gatherVec(src, bi, ri, func(c Column) ([]bool, []bool) { d := c.(*BoolColumn); return d.Vals, d.Nulls })
			cols[j] = &BoolColumn{Vals: vals, Nulls: nulls}
		default:
			return nil, fmt.Errorf("storage: column %d: unsupported column type %v", j, t)
		}
	}
	return cols, nil
}

// gatherVec copies the values at refs out of the dense source vectors (nil for
// a batch no ref names) into one vector of len(bi) values, and their NULL
// flags into another, nil when no gathered value is NULL.
func gatherVec[T any](src []Column, bi, ri []int32, vec func(Column) ([]T, []bool)) ([]T, []bool) {
	vals, nulls := make([][]T, len(src)), make([][]bool, len(src))
	anyNulls := false
	for b, c := range src {
		if c != nil {
			vals[b], nulls[b] = vec(c)
			anyNulls = anyNulls || nulls[b] != nil
		}
	}
	out := make([]T, len(bi))
	for k, b := range bi {
		out[k] = vals[b][ri[k]]
	}
	if !anyNulls {
		return out, nil
	}
	var flags []bool
	for k, b := range bi {
		if n := nulls[b]; n != nil && n[ri[k]] {
			if flags == nil {
				flags = make([]bool, len(bi))
			}
			flags[k] = true
		}
	}
	return out, flags
}
