package core

import (
	"fmt"
	"testing"

	"vsfabric/internal/client"
	"vsfabric/internal/spark"
	"vsfabric/internal/vertica"
	"vsfabric/internal/workload"
)

// BenchmarkS2VPartition is one task of fabricperf's s2v_save: a 37 500-row
// partition of generated D1WithInt rows (pcol and 10 FLOATs; s2v_save's
// 150 000 rows over its 4 partitions) saved through all five S2V phases into
// a 2-node in-process cluster, one overwrite job per iteration, in ns/row and
// B/op. The task streams its partition into its COPY as the generator yields
// it, so the partition's boxed rows never exist at once: the generator
// refills one 4 096-row chunk.
func BenchmarkS2VPartition(b *testing.B) {
	const rows, cols = 37_500, 10
	cl, err := vertica.NewCluster(vertica.Config{Nodes: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	sc := spark.NewContext(spark.Conf{NumExecutors: 1, CoresPerExecutor: 1})
	NewDefaultSource(client.InProc(cl)).Register()
	df := workload.D1WithIntDataFrame(sc, rows, cols, 1, 1)
	opts := map[string]string{"host": cl.Node(0).Addr, "table": "s2v_out", "numPartitions": "1"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts["jobname"] = fmt.Sprint("bench_", i)
		if err := df.Write().Format(DefaultSourceName).Options(opts).Mode(spark.SaveOverwrite).Save(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
	s, err := cl.Connect(0)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	res, err := s.Execute("SELECT COUNT(*) FROM s2v_out")
	if err != nil {
		b.Fatal(err)
	}
	if v, _ := res.Value(); v.I != rows {
		b.Fatalf("s2v_out holds %v rows, want %d", v, rows)
	}
}
