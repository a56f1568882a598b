// Package workload generates the paper's datasets (§4.1) at configurable
// scale, deterministically:
//
//   - D1: 100 columns of uniform random 8-byte floats in [0,1); the paper's
//     full size is 100M rows (140 GB as CSV). Variants: the extra integer
//     column in [0,100) the JDBC baseline needs for partitioning (§4.7.1),
//     and the reshaped 1-column × 10,000M-row variant of Figure 9.
//   - D2: (tweet_id INTEGER, tweet_text VARCHAR) synthetic tweets; the
//     paper's full size is 1.46B rows (140 GB as CSV).
//   - An Iris-like table for the model-deployment example (§3.3's
//     PMMLPredict query runs over IrisTable).
package workload

import (
	"fmt"
	"strings"

	"vsfabric/internal/spark"
	"vsfabric/internal/types"
)

// rng is splitmix64: deterministic, seekable by construction (reseed per
// row), so any partition can generate its slice independently.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

// floatD1 quantizes to 9 decimal digits: D1's CSV footprint then matches the
// paper's 140 GB for 100M rows x 100 cols (~1.2-1.4 KB/row of text), instead
// of the ~2 KB/row that full shortest-round-trip float formatting produces.
func (r *rng) floatD1() float64 {
	return float64(int64(r.float()*1e9)) / 1e9
}

// rowSeed derives an independent stream seed for row i. The finalizer
// matters: seeding adjacent rows with arithmetically related states would
// make their value streams byte-aligned shifts of each other, which deflate
// then compresses absurdly well — silently breaking every transfer-volume
// measurement on "random" data.
func rowSeed(seed uint64, i int64) uint64 {
	z := seed + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// D1Schema returns the schema of D1 with the given column count (c0..cN-1,
// all FLOAT).
func D1Schema(cols int) types.Schema {
	var s types.Schema
	for i := 0; i < cols; i++ {
		s.Cols = append(s.Cols, types.Column{Name: fmt.Sprintf("c%d", i), T: types.Float64})
	}
	return s
}

// D1Row generates row i of D1 (cols float columns).
func D1Row(i int64, cols int, seed uint64) types.Row {
	g := rng{s: rowSeed(seed, i)}
	row := make(types.Row, cols)
	for c := range row {
		row[c] = types.FloatValue(g.floatD1())
	}
	return row
}

// D1Rows materializes rows [lo, hi) of D1.
func D1Rows(lo, hi int64, cols int, seed uint64) []types.Row {
	out := make([]types.Row, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, D1Row(i, cols, seed))
	}
	return out
}

// D1DataFrame builds a lazily generated DataFrame of D1: each partition
// generates its slice, so the driver never materializes the dataset.
func D1DataFrame(sc *spark.Context, rows int64, cols, parts int, seed uint64) *spark.DataFrame {
	rdd := generated(sc, rows, parts, cols, func(row types.Row, i int64) { fillD1(row, rowSeed(seed, i)) })
	return spark.NewDataFrame(sc, D1Schema(cols), rdd)
}

// fillD1 writes the D1 row whose stream seed is s into row: D1Row's values.
func fillD1(row types.Row, s uint64) {
	g := rng{s: s}
	for c := range row {
		row[c] = types.FloatValue(g.floatD1())
	}
}

// chunkRows is how many rows a generated partition yields at a time: the
// 4 096-row Avro block S2V sends (core.encodeRows), so each chunk a save
// pulls is one block of its COPY.
const chunkRows = 4096

// generated is a lazily generated dataset of rows rows, each width values
// wide: partition p streams its share in chunks of chunkRows, fill writing
// row i's values into a row of the chunk. The chunk and its one slab of
// values are allocated afresh for a receiver that keeps them, and once per
// partition for one that borrows them, so generating a partition for a save
// allocates one chunk, not a partition of rows.
func generated(sc *spark.Context, rows int64, parts, width int, fill func(row types.Row, i int64)) *spark.RDD[types.Row] {
	return spark.NewChunkedRDD(sc, parts, func(_ *spark.TaskContext, p int, reuse bool, yield func([]types.Row) bool) error {
		lo := rows * int64(p) / int64(parts)
		hi := rows * int64(p+1) / int64(parts)
		var chunk []types.Row
		for at := lo; at < hi; at += chunkRows {
			n := int(min(hi-at, chunkRows))
			if chunk == nil || !reuse {
				chunk = make([]types.Row, n)
				vals := make([]types.Value, n*width)
				for k := range chunk {
					chunk[k] = vals[k*width : (k+1)*width : (k+1)*width]
				}
			}
			for k, r := range chunk[:n] {
				fill(r, at+int64(k))
			}
			if !yield(chunk[:n]) {
				return nil
			}
		}
		return nil
	})
}

// D1WithIntSchema is D1 plus the integer partition column the JDBC Default
// Source requires (§4.7.1: "we modify dataset D1 to add an integer column
// with randomly assigned values from [0-100)").
func D1WithIntSchema(cols int) types.Schema {
	s := D1Schema(cols)
	s.Cols = append([]types.Column{{Name: "pcol", T: types.Int64}}, s.Cols...)
	return s
}

// D1WithIntRow generates row i of the JDBC variant.
func D1WithIntRow(i int64, cols int, seed uint64) types.Row {
	g := rng{s: rowSeed(seed, i+1<<40)}
	row := make(types.Row, cols+1)
	row[0] = types.IntValue(int64(g.next() % 100))
	for c := 1; c <= cols; c++ {
		row[c] = types.FloatValue(g.floatD1())
	}
	return row
}

// D1WithIntDataFrame builds the JDBC variant lazily.
func D1WithIntDataFrame(sc *spark.Context, rows int64, cols, parts int, seed uint64) *spark.DataFrame {
	rdd := generated(sc, rows, parts, cols+1, func(row types.Row, i int64) {
		// D1WithIntRow's values: pcol, then D1's floats from the same stream.
		g := rng{s: rowSeed(seed, i+1<<40)}
		row[0] = types.IntValue(int64(g.next() % 100))
		fillD1(row[1:], g.s)
	})
	return spark.NewDataFrame(sc, D1WithIntSchema(cols), rdd)
}

var tweetWords = strings.Fields(`
big data fabric enterprise analytics spark vertica cluster query pipeline
stream model predict segment hash epoch commit stage load save partition
network shuffle columnar storage engine task executor node replica scan
`)

// D2Schema returns the tweet schema (§4.1).
func D2Schema() types.Schema {
	return types.NewSchema(
		types.Column{Name: "tweet_id", T: types.Int64},
		types.Column{Name: "tweet_text", T: types.Varchar},
	)
}

// D2Row generates tweet i: an id plus ~90 bytes of synthetic text, matching
// D2's ~96-byte average row (140 GB / 1.46B rows).
func D2Row(i int64, seed uint64) types.Row {
	g := rng{s: rowSeed(seed, i+2<<40)}
	var b strings.Builder
	for b.Len() < 88 {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(tweetWords[g.next()%uint64(len(tweetWords))])
	}
	return types.Row{types.IntValue(i), types.StringValue(b.String())}
}

// D2DataFrame builds D2 lazily.
func D2DataFrame(sc *spark.Context, rows int64, parts int, seed uint64) *spark.DataFrame {
	rdd := generated(sc, rows, parts, 2, func(row types.Row, i int64) { fillD2(row, i, seed) })
	return spark.NewDataFrame(sc, D2Schema(), rdd)
}

// fillD2 writes D2Row(i, seed)'s values into row.
func fillD2(row types.Row, i int64, seed uint64) {
	g := rng{s: rowSeed(seed, i+2<<40)}
	var b strings.Builder
	for b.Len() < 88 {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(tweetWords[g.next()%uint64(len(tweetWords))])
	}
	row[0], row[1] = types.IntValue(i), types.StringValue(b.String())
}

// CSVBytes renders rows as CSV (the on-HDFS representation of §4.1).
func CSVBytes(rows []types.Row) []byte {
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(types.FormatCSV(r, ','))
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// IrisSchema is the schema of the model-deployment example's table (§3.3).
func IrisSchema() types.Schema {
	return types.NewSchema(
		types.Column{Name: "sepal_length", T: types.Float64},
		types.Column{Name: "sepal_width", T: types.Float64},
		types.Column{Name: "petal_length", T: types.Float64},
		types.Column{Name: "petal_width", T: types.Float64},
		types.Column{Name: "species", T: types.Int64},
	)
}

// IrisRows generates an Iris-like two-class dataset: class 0 small flowers,
// class 1 large, linearly separable with noise.
func IrisRows(n int, seed uint64) []types.Row {
	g := rng{s: seed}
	out := make([]types.Row, n)
	for i := range out {
		class := int64(i % 2)
		base := 4.5 + float64(class)*1.8
		out[i] = types.Row{
			types.FloatValue(base + g.float()),
			types.FloatValue(2.5 + g.float()*float64(class+1)*0.4),
			types.FloatValue(1.2 + float64(class)*3.3 + g.float()),
			types.FloatValue(0.2 + float64(class)*1.6 + g.float()*0.4),
			types.IntValue(class),
		}
	}
	return out
}
