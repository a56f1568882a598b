package vertica

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vertica/scantest"
	"vsfabric/internal/vexec"
)

// exactResults fails the test unless got equals want cell for cell, value
// kinds, row order and schema included.
func exactResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if d := scantest.Diff(got.Schema, got.Rows, want.Schema, want.Rows); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
}

func buildScanFixture(t *testing.T, s *Session) {
	t.Helper()
	scantest.Build(7, func(sql string) { s.MustExecute(sql) })
}

// TestColumnarScanMatchesOracle is the in-process leg of the columnar result
// path's equivalence suite (internal/server holds the TCP leg): every
// scan-shaped statement of the shared fixture, through the row API and
// through the non-boxing entry point, equals the oracle cell for cell — and
// really did come back as column batches.
func TestColumnarScanMatchesOracle(t *testing.T) {
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	buildScanFixture(t, s)
	for _, q := range scantest.Queries() {
		want := oracleSelect(t, s, q)
		exactResults(t, q, s.MustExecute(q), want)
		col, err := s.ExecuteColumnar(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if col.Rows != nil || (col.Batches == nil && len(want.Rows) > 0) {
			t.Fatalf("%s: not answered from column batches (%d rows, %d batches)", q, len(col.Rows), len(col.Batches))
		}
		if col.NumRows() != len(want.Rows) {
			t.Fatalf("%s: NumRows %d, want %d", q, col.NumRows(), len(want.Rows))
		}
		exactResults(t, q+" (columnar)", col.Materialize(), want)
	}
	// The shapes that build new vectors — a sort, a computed select list, a
	// group-by — leave the engine as batches too, and still agree.
	for _, q := range []string{
		"SELECT id, val FROM ct WHERE grp = 2 ORDER BY id DESC LIMIT 9",
		"SELECT id + 1, name FROM ct WHERE grp = 1",
		"SELECT grp, COUNT(*), SUM(val) FROM ct GROUP BY grp ORDER BY grp",
	} {
		col, err := s.ExecuteColumnar(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if col.Rows != nil || col.Batches == nil {
			t.Fatalf("%s: not answered from column batches (%d rows, %d batches)", q, len(col.Rows), len(col.Batches))
		}
		sameResults(t, q, col.Materialize(), oracleSelect(t, s, q))
	}
}

// TestColumnarLimitStopsScanEarly: the LIMIT early-stop lives in scanBatches
// now; the point-lookup shape must still stop after the first container of
// each segment rather than filter the table.
func TestColumnarLimitStopsScanEarly(t *testing.T) {
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	buildScanFixture(t, s)
	kernelRows := func(q string) int64 {
		res := s.MustExecute("PROFILE " + q)
		for _, r := range res.Rows {
			if strings.HasPrefix(r[0].S, "scan ") {
				return r[3].I
			}
		}
		t.Fatalf("no scan operator in PROFILE %s", q)
		return 0
	}
	full := kernelRows("SELECT id FROM ct WHERE grp >= 0")
	point := kernelRows("SELECT id FROM ct WHERE grp >= 0 LIMIT 1")
	t.Logf("kernel rows: %d unlimited, %d under LIMIT 1", full, point)
	if full < scantest.Rows*9/10 {
		t.Fatalf("unlimited scan filtered %d rows of %d", full, scantest.Rows)
	}
	if point*2 > full {
		t.Fatalf("LIMIT 1 filtered %d rows, the unlimited scan %d: the scan no longer stops early", point, full)
	}
}

// TestColumnarLimitStopsInsideContainer: a LIMIT-pushed scan filters a
// container in runs of its rows, the first limitChunk long, and stops at the
// limit. A point LIMIT 1 whose first run holds a match reads at most one first
// run per segment in kernel rows, and PROFILE counts none of it as read whole.
// Each segment's 16 000 rows are cut into one ~4 000-row container per local
// segment, a tenth of each grp 3, so LIMIT 200 needs the second run (3 072
// rows) of a segment's first container, not its third, and returns the
// unlimited scan's prefix.
func TestColumnarLimitStopsInsideContainer(t *testing.T) {
	const rows = 48_000
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE big (id INTEGER, grp INTEGER) SEGMENTED BY HASH(id)")
	var csv strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&csv, "%d,%d\n", i, i%10)
	}
	if _, err := s.CopyFrom("COPY big FROM STDIN FORMAT CSV DIRECT", strings.NewReader(csv.String())); err != nil {
		t.Fatal(err)
	}
	whole := "SELECT id FROM big WHERE grp = 3"
	res, n := profileScan(t, s, whole)
	if n.work.IdentityRows != rows || n.work.KernelRows != rows {
		t.Fatalf("%s: filter %+v, want every row read whole", whole, n.work)
	}
	all := storage.Materialize(res.Batches)
	for _, tc := range []struct {
		limit   int
		maxRead int64
	}{
		{1, int64(len(n.jobs)) * limitChunk},
		{200, int64(len(n.jobs)) * 3 * limitChunk},
	} {
		q := fmt.Sprintf("%s LIMIT %d", whole, tc.limit)
		res, n := profileScan(t, s, q)
		got := storage.Materialize(res.Batches)
		if len(got) != tc.limit {
			t.Fatalf("%s: %d rows", q, len(got))
		}
		for i, r := range got {
			if r[0].I != all[i][0].I {
				t.Fatalf("%s: row %d = %v, the unlimited scan's prefix has %v", q, i, r, all[i])
			}
		}
		if n.work.KernelRows > tc.maxRead || n.work.IdentityRows != 0 {
			t.Errorf("%s: filter %+v, want at most %d kernel rows and none read whole", q, n.work, tc.maxRead)
		}
		if detail := s.MustExecute("PROFILE " + q).Rows[0][6].S; strings.Contains(detail, "whole containers") {
			t.Errorf("PROFILE %s: scan detail %q", q, detail)
		}
	}
}

// TestLimitZeroOpensNoSegment: a pushed LIMIT 0 returns before any segment
// is scanned, so no container is considered and no kernel runs.
func TestLimitZeroOpensNoSegment(t *testing.T) {
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	buildScanFixture(t, s)
	for _, q := range []string{"SELECT * FROM ct LIMIT 0", "SELECT id, name FROM ct WHERE grp = 3 LIMIT 0"} {
		res, n := profileScan(t, s, q)
		if res.NumRows() != 0 || n.work != (vexec.FilterStats{}) || n.contSeen != 0 {
			t.Errorf("%s: %d rows, filter %+v, %d containers considered; want none", q, res.NumRows(), n.work, n.contSeen)
		}
		if scan := s.MustExecute("PROFILE " + q).Rows[0]; scan[3].I != 0 {
			t.Errorf("PROFILE %s: %d kernel rows", q, scan[3].I)
		}
	}
}

// TestColumnarBatchesOutliveEpochPin: a columnar result holds no epoch pin
// once its statement returns, yet it is encoded (or boxed) later. The
// snapshot must therefore live in the batches' private selection vectors:
// rows deleted and checkpointed away after the statement still come out of
// the batches it returned.
func TestColumnarBatchesOutliveEpochPin(t *testing.T) {
	c := durableCluster(t, t.TempDir())
	defer c.Close()
	s := sess(t, c, 0)
	buildScanFixture(t, s)
	epoch := c.LastEpoch()
	q := fmt.Sprintf("AT EPOCH %d SELECT * FROM ct", epoch)
	want := oracleSelect(t, s, "SELECT * FROM ct")
	held, err := s.ExecuteColumnar(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}

	s.MustExecute("DELETE FROM ct WHERE grp < 5")
	s.MustExecute("INSERT INTO ct VALUES (100000, 1, 1.5, 'late', TRUE)")
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if now := s.MustExecute("SELECT * FROM ct"); len(now.Rows) >= len(want.Rows) {
		t.Fatalf("delete did not take: %d rows now, %d before", len(now.Rows), len(want.Rows))
	}

	frame, err := storage.AppendBatches(nil, held.Schema, held.Batches)
	if err != nil {
		t.Fatal(err)
	}
	schema, rows, err := storage.DecodeRows(frame)
	if err != nil {
		t.Fatal(err)
	}
	exactResults(t, "encoded after checkpoint", &Result{Schema: schema, Rows: rows}, want)
	exactResults(t, "boxed after checkpoint", held.Materialize(), want)
}

// TestColumnarScanAllocation: the non-boxing entry point's cost per row is
// its selection vector — 4 bytes — not a boxed row.
func TestColumnarScanAllocation(t *testing.T) {
	const n = 200_000
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE wide (id INTEGER, a FLOAT, b FLOAT, name VARCHAR) SEGMENTED BY HASH(id)")
	var csv strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&csv, "%d,%d.5,%d.25,n%d\n", i, i%1000, i%77, i%13)
	}
	if _, err := s.CopyFrom("COPY wide FROM STDIN FORMAT CSV DIRECT", strings.NewReader(csv.String())); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := s.ExecuteColumnar(context.Background(), "SELECT * FROM wide")
	runtime.ReadMemStats(&after)
	if err != nil || res.NumRows() != n {
		t.Fatalf("%d rows: %v", res.NumRows(), err)
	}
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("SELECT * of %d rows: %.2f B/row allocated", n, perRow)
	if perRow > 8 {
		t.Fatalf("SELECT * of %d rows allocated %.1f B/row server-side, want <= 8", n, perRow)
	}
	if got := types.Row(res.Materialize().Rows[0]); len(got) != 4 {
		t.Fatalf("row %v", got)
	}
}
