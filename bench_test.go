// Package vsfabric's top-level benchmarks regenerate every table and figure
// of the paper's evaluation (§4) through the experiment harness in
// internal/bench: each benchmark runs the real system at laptop scale and
// replays the recorded resource trace — scaled to the paper's data sizes —
// through the testbed simulator. Run them all with
//
//	go test -bench=. -benchmem
//
// or one at a time, e.g. -bench=BenchmarkFig6. The printed report compares
// against the paper's numbers; `go run ./cmd/fabricbench` produces the same
// tables with more control.
package vsfabric

import (
	"fmt"
	"testing"

	"vsfabric/internal/bench"
)

// benchRows keeps the real-run row count small enough that the full
// benchmark suite finishes in a few minutes; fabricbench defaults to larger
// runs with less sampling noise.
const benchRows = 20_000

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("no experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		rep, err := exp.Run(bench.RunConfig{RealRows: benchRows})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Println(rep.String())
		}
	}
}

// BenchmarkFig6_VaryingParallelism regenerates Figure 6: V2S and S2V
// execution time across 4..256 partitions (bowl shape; paper anchors: V2S
// 497 s @32 / 475 s @128, S2V 252 s @128).
func BenchmarkFig6_VaryingParallelism(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkTable2_ResourceUsage regenerates Table 2: per-node CPU% and
// network MBps time series during V2S at 4 vs 32 partitions (paper: ~5%/38
// MBps vs ~20%/120 MBps steady states).
func BenchmarkTable2_ResourceUsage(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig7_DataScalability regenerates Figure 7: 1M → 1000M rows,
// linear on log-log axes, with the V2S/S2V crossover.
func BenchmarkFig7_DataScalability(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8_ClusterScalability regenerates Figure 8: 2:4 → 4:8 → 8:16
// clusters with data doubled per step (<10% degradation per doubling).
func BenchmarkFig8_ClusterScalability(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9_Dimensionality regenerates Figure 9: 100 cols × 100M rows
// vs 1 col × 10,000M rows at equal cell count.
func BenchmarkFig9_Dimensionality(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkTable3_DatasetD2 regenerates Table 3: the tweet dataset
// (paper: V2S 378 s, S2V 386 s).
func BenchmarkTable3_DatasetD2(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFig10_LoadVsJDBC regenerates Figure 10: V2S vs the JDBC Default
// Source with and without 5% filter pushdown (paper: ~4× V2S win without
// pushdown).
func BenchmarkFig10_LoadVsJDBC(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11_SaveVsJDBC regenerates Figure 11: S2V vs JDBC INSERT saves
// at 1 / 1K / 10K / 1M rows (paper: 5 s vs 3 s at one row; JDBC >3 h at 1M).
func BenchmarkFig11_SaveVsJDBC(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12_VsHDFS regenerates Figure 12: the connector vs native HDFS
// read/write on a separate 4-node HDFS cluster (paper: HDFS read ~30%
// faster, write ≈ parity).
func BenchmarkFig12_VsHDFS(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkTable4_VsNativeCOPY regenerates Table 4: S2V vs Vertica's native
// parallel COPY across file-split counts (paper: COPY best 238 s @8 parts,
// S2V ~6% slower).
func BenchmarkTable4_VsNativeCOPY(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkMD_DeployAndScore exercises §3.3: PMML deployment plus
// in-database scoring throughput (real time, not simulated — there is no
// corresponding figure in the paper).
func BenchmarkMD_DeployAndScore(b *testing.B) { runExperiment(b, "md") }

// BenchmarkAblation_Locality quantifies the §3.1.2 locality optimization on
// dual-NIC (the paper's testbed) and shared-NIC hardware.
func BenchmarkAblation_Locality(b *testing.B) { runExperiment(b, "ablation_locality") }

// BenchmarkAblation_Encoding compares S2V's raw Avro task encoding (§3.2.2)
// against CSV.
func BenchmarkAblation_Encoding(b *testing.B) { runExperiment(b, "ablation_encoding") }
