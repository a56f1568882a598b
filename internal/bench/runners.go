package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"vsfabric/internal/core"
	"vsfabric/internal/jdbcsource"
	"vsfabric/internal/obs"
	"vsfabric/internal/sim"
	"vsfabric/internal/spark"
	"vsfabric/internal/workload"
)

// dfBuilder constructs the DataFrame to save, against the fabric's current
// Spark context (rebuilt per measurement).
type dfBuilder func(sc *spark.Context) *spark.DataFrame

// d1Builder returns a builder for dataset D1.
func d1Builder(rows int64, cols, parts int) dfBuilder {
	return func(sc *spark.Context) *spark.DataFrame {
		return workload.D1DataFrame(sc, rows, cols, parts, 1)
	}
}

// runS2V saves a DataFrame through the connector and returns simulated
// seconds at the given scale.
func (f *fabric) runS2V(build dfBuilder, table string, parts int, scale float64, extra map[string]string) (float64, error) {
	f.resetTrace()
	df := build(f.sc)
	err := df.Write().
		Format(core.DefaultSourceName).
		Options(f.connectorOpts(table, parts, extra)).
		Mode(spark.SaveOverwrite).
		Save()
	if err != nil {
		return 0, err
	}
	total, _, err := f.simulate(scale, sim.Config{})
	return total, err
}

// runV2S loads a table through the connector (full materialization, no
// count pushdown) and returns simulated seconds.
func (f *fabric) runV2S(table string, parts int, scale float64, filters []spark.Filter, extra map[string]string) (float64, error) {
	f.resetTrace()
	df, err := f.sc.Read().
		Format(core.DefaultSourceName).
		Options(f.connectorOpts(table, parts, extra)).
		Load()
	if err != nil {
		return 0, err
	}
	for _, flt := range filters {
		df = df.Where(flt)
	}
	rdd, err := df.RDD()
	if err != nil {
		return 0, err
	}
	if _, err := rdd.Count(); err != nil {
		return 0, err
	}
	total, _, err := f.simulate(scale, sim.Config{})
	return total, err
}

// runV2SUtilization is runV2S but returns the simulation result with
// utilization sampling enabled (Table 2).
func (f *fabric) runV2SUtilization(table string, parts int, scale float64, horizon float64) (*sim.Result, error) {
	f.resetTrace()
	df, err := f.sc.Read().
		Format(core.DefaultSourceName).
		Options(f.connectorOpts(table, parts, nil)).
		Load()
	if err != nil {
		return nil, err
	}
	rdd, err := df.RDD()
	if err != nil {
		return nil, err
	}
	if _, err := rdd.Count(); err != nil {
		return nil, err
	}
	_, res, err := f.simulate(scale, sim.Config{SampleInterval: 1, Horizon: horizon})
	return res, err
}

// runJDBCLoad loads through the JDBC Default Source baseline.
func (f *fabric) runJDBCLoad(table, partCol string, lower, upper int64, parts int, scale float64, filters []spark.Filter) (float64, error) {
	f.resetTrace()
	opts := map[string]string{
		"url": f.host, "dbtable": table,
		"numPartitions": fmt.Sprint(parts),
	}
	if partCol != "" {
		opts["partitionColumn"] = partCol
		opts["lowerBound"] = fmt.Sprint(lower)
		opts["upperBound"] = fmt.Sprint(upper)
	}
	df, err := f.sc.Read().Format(jdbcsource.SourceName).Options(opts).Load()
	if err != nil {
		return 0, err
	}
	for _, flt := range filters {
		df = df.Where(flt)
	}
	rdd, err := df.RDD()
	if err != nil {
		return 0, err
	}
	if _, err := rdd.Count(); err != nil {
		return 0, err
	}
	total, _, err := f.simulate(scale, sim.Config{})
	return total, err
}

// runJDBCSave saves through the JDBC Default Source baseline (batched
// INSERTs).
func (f *fabric) runJDBCSave(build dfBuilder, table string, scale float64) (float64, error) {
	f.resetTrace()
	df := build(f.sc)
	err := df.Write().
		Format(jdbcsource.SourceName).
		Options(map[string]string{"url": f.host, "dbtable": table}).
		Mode(spark.SaveOverwrite).
		Save()
	if err != nil {
		return 0, err
	}
	total, _, err := f.simulate(scale, sim.Config{})
	return total, err
}

// runNativeCopy is the §4.7.3 baseline: the D1 CSV split into `parts` files
// distributed round-robin over the nodes' local disks, loaded by concurrent
// node-local COPY statements.
func (f *fabric) runNativeCopy(realRows int64, cols, parts int, scale float64) (float64, error) {
	f.resetTrace()
	if err := f.sql(
		"DROP TABLE IF EXISTS d1copy",
		fmt.Sprintf("CREATE TABLE d1copy %s", workload.D1Schema(cols)),
	); err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp("", "vsfabric-copy")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	paths := make([]string, parts)
	for p := 0; p < parts; p++ {
		lo := realRows * int64(p) / int64(parts)
		hi := realRows * int64(p+1) / int64(parts)
		data := workload.CSVBytes(workload.D1Rows(lo, hi, cols, 1))
		paths[p] = filepath.Join(dir, fmt.Sprintf("part-%03d.csv", p))
		if err := os.WriteFile(paths[p], data, 0o600); err != nil {
			return 0, err
		}
	}
	nNodes := f.cluster.NumNodes()
	var wg sync.WaitGroup
	errs := make([]error, parts)
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			node := p % nNodes
			s, err := f.cluster.Connect(node)
			if err != nil {
				errs[p] = err
				return
			}
			defer s.Close()
			rec := f.trace.Task(fmt.Sprintf("copy-part-%03d", p), "")
			rec.Fixed(sim.FixedConnect)
			ctx := sim.WithTask(obs.WithPeer(context.Background(), f.cluster.Node(node).Name), rec)
			_, errs[p] = s.ExecuteContext(ctx, fmt.Sprintf("COPY d1copy FROM LOCAL '%s' FORMAT CSV DIRECT", paths[p]))
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	total, _, err := f.simulate(scale, sim.Config{})
	return total, err
}
