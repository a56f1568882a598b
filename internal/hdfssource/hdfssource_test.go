package hdfssource

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"vsfabric/internal/hdfs"
	"vsfabric/internal/spark"
	"vsfabric/internal/types"
)

func setup(t *testing.T) (*spark.Context, *hdfs.FS) {
	t.Helper()
	sc := spark.NewContext(spark.Conf{NumExecutors: 2, CoresPerExecutor: 4})
	fs, err := hdfs.New(hdfs.Config{DataNodes: 3, BlockSize: 2048, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	return sc, fs
}

func frame(sc *spark.Context, n, parts int) *spark.DataFrame {
	schema := types.NewSchema(
		types.Column{Name: "id", T: types.Int64},
		types.Column{Name: "txt", T: types.Varchar},
	)
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.IntValue(int64(i)), types.StringValue("row-data-payload")}
	}
	return spark.CreateDataFrame(sc, schema, rows, parts)
}

func TestWriteReadRoundTrip(t *testing.T) {
	sc, fs := setup(t)
	df := frame(sc, 500, 4)
	if err := Write(fs, "data/d1", df, 0); err != nil {
		t.Fatal(err)
	}
	back, err := Read(sc, fs, "data/d1")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := back.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 500 {
		t.Fatalf("round trip: %d rows", len(rows))
	}
	seen := map[int64]bool{}
	for _, r := range rows {
		if seen[r[0].I] {
			t.Fatalf("duplicate %d", r[0].I)
		}
		seen[r[0].I] = true
	}
	if !back.Schema().Equal(df.Schema()) {
		t.Errorf("schema = %v", back.Schema())
	}
}

func TestOnePartitionPerBlock(t *testing.T) {
	sc, fs := setup(t)
	df := frame(sc, 2000, 2)
	// Force many small files so the read side gets many partitions.
	if err := Write(fs, "blk/d1", df, 1024); err != nil {
		t.Fatal(err)
	}
	files := len(fs.List("blk/d1/"))
	if files < 10 {
		t.Fatalf("expected many block files, got %d", files)
	}
	back, err := Read(sc, fs, "blk/d1")
	if err != nil {
		t.Fatal(err)
	}
	np, err := back.NumPartitions()
	if err != nil {
		t.Fatal(err)
	}
	if np != files {
		t.Errorf("partitions = %d, files = %d (want one per block)", np, files)
	}
	n, err := back.Count()
	if err != nil || n != 2000 {
		t.Errorf("count = %d, %v", n, err)
	}
}

func TestReadMissingDir(t *testing.T) {
	sc, fs := setup(t)
	if _, err := Read(sc, fs, "missing"); err == nil {
		t.Error("missing dir should error")
	}
}

func allTypes() types.Schema {
	return types.NewSchema(
		types.Column{Name: "i", T: types.Int64}, types.Column{Name: "f", T: types.Float64},
		types.Column{Name: "s", T: types.Varchar}, types.Column{Name: "b", T: types.Bool},
	)
}

// A NULL of every type survives the round trip.
func TestNullsSurvive(t *testing.T) {
	sc, fs := setup(t)
	want := []types.Row{
		{types.NullValue(types.Int64), types.NullValue(types.Float64), types.NullValue(types.Varchar), types.NullValue(types.Bool)},
		{types.IntValue(-3), types.FloatValue(0.5), types.StringValue(""), types.BoolValue(true)},
	}
	if err := Write(fs, "nulls", spark.CreateDataFrame(sc, allTypes(), want, 1), 0); err != nil {
		t.Fatal(err)
	}
	back, err := Read(sc, fs, "nulls")
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Collect()
	if err != nil || len(got) != len(want) {
		t.Fatalf("%d rows (%v), want %d", len(got), err, len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Errorf("row %d col %d = %#v, want %#v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// A partition with no rows is one empty file, which reads back as no rows
// under the frame's schema.
func TestEmptyFile(t *testing.T) {
	sc, fs := setup(t)
	if err := Write(fs, "empty", spark.CreateDataFrame(sc, allTypes(), nil, 2), 0); err != nil {
		t.Fatal(err)
	}
	back, err := Read(sc, fs, "empty")
	if err != nil {
		t.Fatal(err)
	}
	n, err := back.Count()
	if err != nil || n != 0 || len(fs.List("empty/")) != 2 || !back.Schema().Equal(allTypes()) {
		t.Fatalf("%d rows (%v) in %d files, schema %v", n, err, len(fs.List("empty/")), back.Schema())
	}
}

// A file that is not a row block, or is one cut short, fails the read with
// the file's name.
func TestBadInput(t *testing.T) {
	sc, fs := setup(t)
	if err := Write(fs, "good", frame(sc, 50, 1), 0); err != nil {
		t.Fatal(err)
	}
	good, err := fs.ReadFile(fs.List("good/")[0], nil, "", "")
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"garbage": []byte("nope"), "truncated": good[:len(good)-2]} {
		if err := fs.WriteFile("bad-"+name+"/part-0", data, nil, "", ""); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(sc, fs, "bad-"+name); err == nil || !strings.Contains(err.Error(), "bad-"+name+"/part-0") {
			t.Errorf("%s file: %v, want an error naming the file", name, err)
		}
	}
}

// A row narrower than the schema fails the write.
func TestWrongWidthRow(t *testing.T) {
	sc, fs := setup(t)
	short := spark.CreateDataFrame(sc, allTypes(), []types.Row{{types.IntValue(1)}}, 1)
	if err := Write(fs, "short", short, 0); err == nil {
		t.Error("a row narrower than the schema should fail the write")
	}
}

// TestWriteRetriesASourceThatFailedMidStream: a partition whose source fails
// after more than a file's worth of rows leaves no file behind, so the
// task's retry writes every file and the data round-trips whole.
func TestWriteRetriesASourceThatFailedMidStream(t *testing.T) {
	sc, fs := setup(t)
	const rows, parts = 2000, 2
	var mu sync.Mutex
	failed := map[int]bool{}
	src := spark.NewChunkedRDD(sc, parts, func(_ *spark.TaskContext, p int, _ bool, yield func([]types.Row) bool) error {
		mu.Lock()
		fail := !failed[p]
		failed[p] = true
		mu.Unlock()
		for i := rows * p / parts; i < rows*(p+1)/parts; i++ {
			// 500 rows of ~30 bytes: many 1 KB files' worth, then a failure.
			if fail && i == rows*p/parts+500 {
				return errors.New("source failed mid-stream")
			}
			if !yield([]types.Row{{types.IntValue(int64(i)), types.StringValue("row-data-payload")}}) {
				return nil
			}
		}
		return nil
	})
	df := spark.NewDataFrame(sc, frame(sc, 0, 1).Schema(), src)
	if err := Write(fs, "retry/d1", df, 1024); err != nil {
		t.Fatalf("Write after a retried source failure: %v", err)
	}
	back, err := Read(sc, fs, "retry/d1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Collect()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, r := range got {
		seen[r[0].I] = true
	}
	if len(got) != rows || len(seen) != rows {
		t.Fatalf("round trip: %d rows, %d distinct, want %d", len(got), len(seen), rows)
	}
	if !failed[0] || !failed[1] {
		t.Fatalf("a partition's source never ran: %v", failed)
	}
}
