package vertica

import (
	"fmt"
	"strings"
	"testing"
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
