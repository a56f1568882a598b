package workload

import (
	"bytes"
	"compress/flate"
	"strings"
	"testing"

	"vsfabric/internal/spark"
	"vsfabric/internal/types"
)

func sc() *spark.Context {
	return spark.NewContext(spark.Conf{NumExecutors: 2, CoresPerExecutor: 4})
}

func TestD1Deterministic(t *testing.T) {
	a := D1Row(42, 10, 1)
	b := D1Row(42, 10, 1)
	for i := range a {
		if a[i].F != b[i].F {
			t.Fatal("D1 must be deterministic")
		}
	}
	c := D1Row(43, 10, 1)
	if a[0].F == c[0].F {
		t.Error("distinct rows should differ")
	}
	for _, v := range a {
		if v.F < 0 || v.F >= 1 {
			t.Errorf("value %v outside [0,1)", v.F)
		}
	}
}

// The regression this guards: adjacent rows' value streams must not be
// byte-aligned shifts of each other, or deflate "compresses" the random
// dataset away and every transfer measurement collapses.
func TestD1NotDeflatable(t *testing.T) {
	rows := D1Rows(0, 200, 100, 1)
	var raw bytes.Buffer
	for _, r := range rows {
		for _, v := range r {
			var b [8]byte
			for i := 0; i < 8; i++ {
				b[i] = byte(uint64(v.F*float64(1<<62)) >> (8 * i))
			}
			raw.Write(b[:])
		}
	}
	var comp bytes.Buffer
	w, _ := flate.NewWriter(&comp, flate.DefaultCompression)
	_, _ = w.Write(raw.Bytes())
	_ = w.Close()
	if ratio := float64(comp.Len()) / float64(raw.Len()); ratio < 0.5 {
		t.Errorf("random data compressed to %.2f of raw — generator is not random enough", ratio)
	}
}

func TestD1CSVFootprint(t *testing.T) {
	// §4.1: D1 is 140 GB of CSV for 100M rows ⇒ ~1.2-1.5 KB/row.
	data := CSVBytes(D1Rows(0, 100, 100, 1))
	perRow := len(data) / 100
	if perRow < 900 || perRow > 1600 {
		t.Errorf("D1 CSV is %d B/row, want ~1.2-1.4 KB to match the paper's 140 GB", perRow)
	}
}

func TestD1DataFrameCoversAllRows(t *testing.T) {
	df := D1DataFrame(sc(), 100, 3, 7, 1)
	rows, err := df.Collect()
	if err != nil || len(rows) != 100 {
		t.Fatalf("rows = %d, %v", len(rows), err)
	}
	if df.Schema().NumCols() != 3 {
		t.Errorf("schema = %v", df.Schema())
	}
}

func TestD1WithInt(t *testing.T) {
	df := D1WithIntDataFrame(sc(), 500, 5, 4, 1)
	rows, err := df.Collect()
	if err != nil || len(rows) != 500 {
		t.Fatalf("rows = %d, %v", len(rows), err)
	}
	for _, r := range rows {
		if r[0].I < 0 || r[0].I >= 100 {
			t.Errorf("pcol %d outside [0,100)", r[0].I)
		}
	}
	if df.Schema().Cols[0].Name != "pcol" {
		t.Errorf("schema = %v", df.Schema())
	}
}

func TestD2Shape(t *testing.T) {
	r := D2Row(7, 1)
	if r[0].I != 7 {
		t.Errorf("tweet_id = %v", r[0])
	}
	if len(r[1].S) < 80 || len(r[1].S) > 120 {
		t.Errorf("tweet_text %d chars, want ~88-100 (140GB / 1.46B rows)", len(r[1].S))
	}
	df := D2DataFrame(sc(), 200, 4, 1)
	n, err := df.Count()
	if err != nil || n != 200 {
		t.Errorf("count = %d, %v", n, err)
	}
}

func TestCSVBytesParsable(t *testing.T) {
	rows := D1Rows(0, 10, 4, 1)
	data := CSVBytes(rows)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 10 {
		t.Fatalf("lines = %d", len(lines))
	}
	got, err := types.ParseCSV(lines[0], D1Schema(4), ',')
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].F != rows[0][i].F {
			t.Errorf("CSV round trip col %d: %v != %v", i, got[i], rows[0][i])
		}
	}
}

func TestIrisSeparable(t *testing.T) {
	rows := IrisRows(100, 1)
	if len(rows) != 100 {
		t.Fatal("wrong count")
	}
	// Class-1 petal lengths must all exceed class-0's (separability the MD
	// example depends on).
	max0, min1 := 0.0, 1e9
	for _, r := range rows {
		pl := r[2].F
		if r[4].I == 0 && pl > max0 {
			max0 = pl
		}
		if r[4].I == 1 && pl < min1 {
			min1 = pl
		}
	}
	if max0 >= min1 {
		t.Errorf("classes overlap on petal_length: max0=%v min1=%v", max0, min1)
	}
}

// TestGeneratedFramesStreamTheRowFunctions: every lazily generated frame
// yields its rows in chunks of at most chunkRows, and each row — kept or
// borrowed from a reused chunk — equals the row function's, value for value.
func TestGeneratedFramesStreamTheRowFunctions(t *testing.T) {
	const rows, cols, parts, seed = 2*chunkRows + 123, 4, 2, 9
	frames := map[string]struct {
		df  *spark.DataFrame
		row func(i int64) types.Row
	}{
		"D1":        {D1DataFrame(sc(), rows, cols, parts, seed), func(i int64) types.Row { return D1Row(i, cols, seed) }},
		"D1WithInt": {D1WithIntDataFrame(sc(), rows, cols, parts, seed), func(i int64) types.Row { return D1WithIntRow(i, cols, seed) }},
		"D2":        {D2DataFrame(sc(), rows, parts, seed), func(i int64) types.Row { return D2Row(i, seed) }},
	}
	for name, f := range frames {
		rdd, err := f.df.RDD()
		if err != nil {
			t.Fatal(err)
		}
		kept, err := rdd.Collect()
		if err != nil || len(kept) != rows {
			t.Fatalf("%s: Collect = %d rows, %v", name, len(kept), err)
		}
		borrowed := make([]types.Row, rows)
		err = rdd.ForeachPartition(func(tc *spark.TaskContext, in spark.Stream[types.Row]) error {
			at := int64(rows) * int64(tc.PartitionID) / parts
			return in.Borrow(func(chunk []types.Row) bool {
				if len(chunk) > chunkRows {
					t.Errorf("%s: a chunk of %d rows", name, len(chunk))
				}
				for _, r := range chunk {
					borrowed[at] = append(types.Row(nil), r...)
					at++
				}
				return true
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range kept {
			want := f.row(int64(i))
			for _, got := range []types.Row{kept[i], borrowed[i]} {
				if len(got) != len(want) {
					t.Fatalf("%s row %d = %v, want %v", name, i, got, want)
				}
				for c := range want {
					if got[c] != want[c] {
						t.Fatalf("%s row %d = %v, want %v", name, i, got, want)
					}
				}
			}
		}
	}
}
