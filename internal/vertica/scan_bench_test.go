package vertica

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"vsfabric/internal/vhash"
)

// benchScanRows is the table size the scan benchmarks run against: 1M rows
// hash-segmented across 4 nodes. The RowAtATime variants time the test
// oracle on the same cluster, for scale.
const benchScanRows = 1_000_000

// buildScanBenchCluster loads a 1M-row segmented table via COPY ... DIRECT.
// grp cycles 0..99, so `grp = 7` selects 1% of the rows.
func buildScanBenchCluster(b *testing.B) *Session {
	b.Helper()
	c, err := NewCluster(Config{Nodes: 4})
	if err != nil {
		b.Fatal(err)
	}
	s, err := c.Connect(0)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	s.MustExecute("CREATE TABLE bench_scan (id INTEGER, grp INTEGER, val FLOAT) SEGMENTED BY HASH(id)")
	var csv strings.Builder
	csv.Grow(benchScanRows * 16)
	for i := 0; i < benchScanRows; i++ {
		fmt.Fprintf(&csv, "%d,%d,%d.5\n", i, i%100, i%1000)
	}
	if _, err := s.CopyFrom("COPY bench_scan FROM STDIN FORMAT CSV DIRECT",
		strings.NewReader(csv.String())); err != nil {
		b.Fatal(err)
	}
	return s
}

// benchQuery runs q on the engine, or on the oracle when oracle is set.
func benchQuery(b *testing.B, s *Session, q string, oracle bool) *Result {
	if oracle {
		return oracleSelect(b, s, q)
	}
	res, err := s.Execute(q)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func benchSelectiveScan(b *testing.B, oracle bool) {
	s := buildScanBenchCluster(b)
	const q = "SELECT id, val FROM bench_scan WHERE grp = 7"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := benchQuery(b, s, q, oracle); len(res.Rows) != benchScanRows/100 {
			b.Fatalf("got %d rows", len(res.Rows))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(benchScanRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkScanVectorized(b *testing.B) { benchSelectiveScan(b, false) }
func BenchmarkScanRowAtATime(b *testing.B) { benchSelectiveScan(b, true) }

func benchCount(b *testing.B, oracle bool) {
	s := buildScanBenchCluster(b)
	const q = "SELECT COUNT(*) FROM bench_scan WHERE id >= 0"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, _ := benchQuery(b, s, q, oracle).Value(); v.I != benchScanRows {
			b.Fatalf("count = %v", v)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(benchScanRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkCountVectorized(b *testing.B) { benchCount(b, false) }
func BenchmarkCountRowAtATime(b *testing.B) { benchCount(b, true) }

// join3Way is the sql_mix workload's join statement over joinFixture.
const join3Way = "SELECT dim_b.name, COUNT(*), SUM(f.c1) FROM f JOIN dim_a ON f.pcol = dim_a.pcol " +
	"JOIN dim_b ON dim_a.grp = dim_b.grp GROUP BY dim_b.name"

// joinFixture loads the shape of the sql_mix join on a 3-node cluster: a fact
// table f of rows x 11 columns (pcol INTEGER cycling through 0..99, c0..c9
// FLOAT), dim_a(pcol, grp) with one row per pcol and grp = pcol % 10, and
// dim_b(grp, name) with one row per grp. Every fact row matches exactly one
// row of each dimension.
func joinFixture(tb testing.TB, rows int) *Session {
	tb.Helper()
	c, err := NewCluster(Config{Nodes: 3})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := c.Connect(0)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	cols := []string{"pcol INTEGER"}
	for j := 0; j < 10; j++ {
		cols = append(cols, fmt.Sprintf("c%d FLOAT", j))
	}
	s.MustExecute("CREATE TABLE f (" + strings.Join(cols, ", ") + ") SEGMENTED BY HASH(pcol)")
	var csv strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&csv, "%d", i%100)
		for j := 0; j < 10; j++ {
			fmt.Fprintf(&csv, ",%d.25", (i*7+j)%1000)
		}
		csv.WriteByte('\n')
	}
	if _, err := s.CopyFrom("COPY f FROM STDIN FORMAT CSV DIRECT", strings.NewReader(csv.String())); err != nil {
		tb.Fatal(err)
	}
	var a, b []string
	for p := 0; p < 100; p++ {
		a = append(a, fmt.Sprintf("(%d, %d)", p, p%10))
	}
	for g := 0; g < 10; g++ {
		b = append(b, fmt.Sprintf("(%d, 'g%d')", g, g))
	}
	s.MustExecute("CREATE TABLE dim_a (pcol INTEGER, grp INTEGER) UNSEGMENTED ALL NODES")
	s.MustExecute("CREATE TABLE dim_b (grp INTEGER, name VARCHAR) UNSEGMENTED ALL NODES")
	s.MustExecute("INSERT INTO dim_a VALUES " + strings.Join(a, ", "))
	s.MustExecute("INSERT INTO dim_b VALUES " + strings.Join(b, ", "))
	return s
}

// BenchmarkJoin3Way times the sql_mix join statement over a 60 000-row fact
// table: scans, two join steps and the group-by. Run with -benchmem.
func BenchmarkJoin3Way(b *testing.B) {
	s := joinFixture(b, 60_000)
	var res *Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = s.ExecuteColumnar(context.Background(), join3Way); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if res.NumRows() != 10 {
		b.Fatalf("%d groups", res.NumRows())
	}
}

// BenchmarkPointFilter times sql_mix's point and filter statements over
// joinFixture's 60 000 fact rows. The filter statement runs a kernel over
// every row of every container the scan sees whole, then a second kernel over
// the 1 % left. The point statement filters each container in runs of rows
// and stops at its LIMIT: inside the first run of the one segment that holds
// pcol 42 (joinFixture segments by HASH(pcol)), while the other two segments,
// with no match, read every run. In sql_mix every segment holds every pcol.
// joinFixture's c1 is never below 0.25, so sql_mix's cut of 0.01 would let
// the zone maps prune every container; the filter's cut is 100 instead,
// keeping 60 of pcol 42's 600 rows. Run with -benchmem.
func BenchmarkPointFilter(b *testing.B) {
	s := joinFixture(b, 60_000)
	for _, bc := range []struct {
		name, q string
		rows    int
	}{
		{"point", "SELECT c0 FROM f WHERE pcol = 42 LIMIT 1", 1},
		{"filter", "SELECT * FROM f WHERE pcol = 42 AND c1 < 100", 60},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var res *Result
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = s.ExecuteColumnar(context.Background(), bc.q); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if res.NumRows() != bc.rows {
				b.Fatalf("%d rows, want %d", res.NumRows(), bc.rows)
			}
		})
	}
}

// BenchmarkJoinDuplicateKeys times the join form BenchmarkJoin3Way's does not
// take: a build side whose keys repeat, so the probe side is gathered by
// matched pairs. dim_d holds two rows per pcol, so the 60 000 fact rows of
// joinFixture make 120 000 pairs, grouped by the build side's tag. Run with
// -benchmem.
func BenchmarkJoinDuplicateKeys(b *testing.B) {
	s := joinFixture(b, 60_000)
	var d []string
	for p := 0; p < 100; p++ {
		d = append(d, fmt.Sprintf("(%d, 't%d'), (%d, 't%d')", p, p%10, p, p%10+10))
	}
	s.MustExecute("CREATE TABLE dim_d (pcol INTEGER, tag VARCHAR) UNSEGMENTED ALL NODES")
	s.MustExecute("INSERT INTO dim_d VALUES " + strings.Join(d, ", "))
	const q = "SELECT dim_d.tag, COUNT(*), SUM(f.c1) FROM f JOIN dim_d ON f.pcol = dim_d.pcol GROUP BY dim_d.tag"
	var res *Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = s.ExecuteColumnar(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if res.NumRows() != 20 {
		b.Fatalf("%d groups", res.NumRows())
	}
}

// BenchmarkGroupBy times two group-by statements over joinFixture's 60 000
// fact rows: sql_mix's GROUP BY of the INTEGER pcol (100 groups, COUNT/SUM/
// AVG), and the join statement's VARCHAR group-by (dim_b.name, 10 groups,
// COUNT/SUM) over the joined rows, which setup materializes once into fj so
// the group-by runs alone. Run with -benchmem.
func BenchmarkGroupBy(b *testing.B) {
	s := joinFixture(b, 60_000)
	s.MustExecute("CREATE TABLE fj (name VARCHAR, c1 FLOAT) SEGMENTED BY HASH(c1)")
	s.MustExecute("INSERT INTO fj SELECT dim_b.name, f.c1 FROM f JOIN dim_a ON f.pcol = dim_a.pcol " +
		"JOIN dim_b ON dim_a.grp = dim_b.grp")
	if err := s.cluster.Moveout(); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name, q string
		groups  int
	}{
		{"int_key", "SELECT pcol, COUNT(*), SUM(c1), AVG(c2) FROM f GROUP BY pcol", 100},
		{"varchar_key", "SELECT name, COUNT(*), SUM(c1) FROM fj GROUP BY name", 10},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var res *Result
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = s.ExecuteColumnar(context.Background(), bc.q); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if res.NumRows() != bc.groups {
				b.Fatalf("%d groups, want %d", res.NumRows(), bc.groups)
			}
		})
	}
}

// partitionFixture loads the shape of the V2S workloads' d1 table on a
// cluster of the given size: f of rows x 11 columns (pcol INTEGER cycling
// through 0..99, c0..c9 FLOAT scrambled per row) segmented by every column,
// HASH(*), through COPY DIRECT, so each node holds containers without
// deletes. Like d1's, no two rows repeat a pattern, so a container's hashes
// fall in or out of a partition's range in no order a branch predictor
// learns.
func partitionFixture(tb testing.TB, nodes, rows int) *Session {
	tb.Helper()
	c, err := NewCluster(Config{Nodes: nodes})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := c.Connect(0)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	cols := []string{"pcol INTEGER"}
	for j := 0; j < 10; j++ {
		cols = append(cols, fmt.Sprintf("c%d FLOAT", j))
	}
	s.MustExecute("CREATE TABLE f (" + strings.Join(cols, ", ") + ")")
	var csv strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&csv, "%d", i%100)
		for j := 0; j < 10; j++ {
			fmt.Fprintf(&csv, ",%d.25", (i*2654435761+j*40503)%100000)
		}
		csv.WriteByte('\n')
	}
	if _, err := s.CopyFrom("COPY f FROM STDIN FORMAT CSV DIRECT", strings.NewReader(csv.String())); err != nil {
		tb.Fatal(err)
	}
	return s
}

// partitionStatements renders the statements of a V2S job of parts
// partitions over table f, as the connector renders them (§3.1.2, Figure
// 4(b)): one per slice of a node's segment, read at the last closed epoch,
// with the pushed-down filter ANDed on when there is one.
func partitionStatements(tb testing.TB, s *Session, items, pushdown string, parts int) []string {
	tb.Helper()
	tbl, ok := s.cluster.cat.Table("f")
	if !ok {
		tb.Fatal("no table f")
	}
	segs := tbl.SegmentRanges()
	var out []string
	for _, seg := range segs {
		for _, r := range vhash.Split(seg, max(1, parts/len(segs))) {
			q := fmt.Sprintf("AT EPOCH %d SELECT %s FROM f WHERE HASH(*) >= %d AND HASH(*) < %d",
				s.cluster.LastEpoch(), items, r.Lo, r.Hi)
			if pushdown != "" {
				q += " AND (" + pushdown + ")"
			}
			out = append(out, q)
		}
	}
	return out
}

// BenchmarkV2SPartitionScan times the partition statements of one V2S job on
// 2 nodes over partitionFixture's 300 000 rows: v2s_pushdown's shape
// (pcol < 5, two columns) and v2s_full's (no filter, every column), each as a
// 4-partition job (half a segment a statement, fabricperf's on 2 cores) and a
// 2-partition one (a whole segment a statement, decided by each container's
// hash span). One op is the job's statements, engine side only (no wire, no
// boxing). Run with -benchmem.
func BenchmarkV2SPartitionScan(b *testing.B) {
	const rows = 300_000
	s := partitionFixture(b, 2, rows)
	all := "pcol, c0, c1, c2, c3, c4, c5, c6, c7, c8, c9"
	for _, parts := range []int{4, 2} {
		for _, bc := range []struct {
			name, items, pushdown string
			rows                  int
		}{
			{"pushdown", "pcol, c0", "pcol < 5", rows / 20},
			{"full", all, "", rows},
		} {
			b.Run(fmt.Sprintf("%s_%dparts", bc.name, parts), func(b *testing.B) {
				stmts := partitionStatements(b, s, bc.items, bc.pushdown, parts)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					n := 0
					for _, q := range stmts {
						res, err := s.ExecuteColumnar(context.Background(), q)
						if err != nil {
							b.Fatal(err)
						}
						n += res.NumRows()
					}
					if n != bc.rows {
						b.Fatalf("%d rows, want %d", n, bc.rows)
					}
				}
				b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			})
		}
	}
}
