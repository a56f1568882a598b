package bench

import (
	"fmt"
	"time"

	"vsfabric/internal/core"
	"vsfabric/internal/hdfssource"
	"vsfabric/internal/mllib"
	"vsfabric/internal/sim"
	"vsfabric/internal/spark"
	"vsfabric/internal/types"
	"vsfabric/internal/workload"
)

const (
	d1Cols       = 100
	d1TargetRows = 100e6  // §4.1: D1 is 100M rows
	d2TargetRows = 1.46e9 // §4.1: D2 is 1.46B rows
)

func realRows(cfg RunConfig, def int64) int64 {
	if cfg.RealRows > 0 {
		return cfg.RealRows
	}
	return def
}

func init() {
	register(Experiment{
		ID:    "fig6",
		Title: "V2S and S2V execution time vs number of partitions (D1, 100M rows, 4:8 cluster)",
		Run:   runFig6,
	})
	register(Experiment{
		ID:    "table2",
		Title: "Vertica node CPU% and network MBps during V2S, 4 vs 32 partitions (first 300 s)",
		Run:   runTable2,
	})
	register(Experiment{
		ID:    "fig7",
		Title: "Data scalability: execution time vs rows, 1M to 1000M (V2S@32, S2V@128)",
		Run:   runFig7,
	})
	register(Experiment{
		ID:    "fig8",
		Title: "Cluster scalability: 2:4 / 4:8 / 8:16 with data doubled per step",
		Run:   runFig8,
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Data dimensionality: 100 cols x 100M rows vs 1 col x 10000M rows (same cells)",
		Run:   runFig9,
	})
	register(Experiment{
		ID:    "table3",
		Title: "Dataset D2 (tweets, 1.46B rows): V2S@32 and S2V@128",
		Run:   runTable3,
	})
}

// runFig6 sweeps partition counts. The S2V save of each sweep point also
// seeds the table its V2S measurement loads back — the paper's own
// methodology (§4.1).
func runFig6(cfg RunConfig) (*Report, error) {
	rows := realRows(cfg, 40_000)
	scale := d1TargetRows / float64(rows)
	rep := &Report{
		ID:     "fig6",
		Title:  "Varying the number of partitions (D1, 100M rows)",
		Paper:  "bowl shape; V2S best 475 s @128 (497 s @32); S2V best 252 s @128",
		Header: []string{"partitions", "V2S (s)", "S2V (s)"},
	}
	for _, p := range []int{4, 8, 16, 32, 64, 128, 256} {
		f, err := newFabric(4, 8, 0)
		if err != nil {
			return nil, err
		}
		s2v, err := f.runS2V(d1Builder(rows, d1Cols, p), "d1", p, scale, nil)
		if err != nil {
			return nil, fmt.Errorf("fig6 S2V p=%d: %w", p, err)
		}
		v2s, err := f.runV2S("d1", p, scale, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("fig6 V2S p=%d: %w", p, err)
		}
		logf(cfg, "fig6 p=%d: V2S %.0fs S2V %.0fs", p, v2s, s2v)
		rep.Rows = append(rep.Rows, []string{fmt.Sprint(p), secs(v2s), secs(s2v)})
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("real run: %d rows x %d cols, scaled x%.0f", rows, d1Cols, scale))
	return rep, nil
}

// runTable2 reports per-node resource usage time series for V2S at 4 and 32
// partitions.
func runTable2(cfg RunConfig) (*Report, error) {
	rows := realRows(cfg, 40_000)
	scale := d1TargetRows / float64(rows)
	rep := &Report{
		ID:     "table2",
		Title:  "Vertica node resource usage during V2S (node v0, first 300 s)",
		Paper:  "4 partitions: steady ~5% CPU, ~38 MBps; 32 partitions: ~20% CPU, ~120 MBps (saturated)",
		Header: []string{"t (s)", "4p CPU%", "4p MBps", "32p CPU%", "32p MBps"},
	}
	series := map[int]*sim.Result{}
	for _, p := range []int{4, 32} {
		f, err := newFabric(4, 8, 0)
		if err != nil {
			return nil, err
		}
		if _, err := f.runS2V(d1Builder(rows, d1Cols, 64), "d1", 64, scale, nil); err != nil {
			return nil, err
		}
		res, err := f.runV2SUtilization("d1", p, scale, 310)
		if err != nil {
			return nil, err
		}
		series[p] = res
	}
	sample := func(res *sim.Result, name string, t int) float64 {
		util := res.Utilization[name]
		if t < len(util) {
			return util[t].Used
		}
		return 0
	}
	for t := 15; t <= 300; t += 30 {
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(t),
			fmt.Sprintf("%.1f", sample(series[4], "cpu:v0", t)/16*100),
			fmt.Sprintf("%.0f", sample(series[4], "out:v0", t)/1e6),
			fmt.Sprintf("%.1f", sample(series[32], "cpu:v0", t)/16*100),
			fmt.Sprintf("%.0f", sample(series[32], "out:v0", t)/1e6),
		})
	}
	return rep, nil
}

// runFig7 scales the data size; one real run per direction, rescaled per
// target size.
func runFig7(cfg RunConfig) (*Report, error) {
	rows := realRows(cfg, 40_000)
	rep := &Report{
		ID:     "fig7",
		Title:  "Varying the data size (D1; V2S@32 partitions, S2V@128)",
		Paper:  "linear in rows (log-log); S2V 19 s @1M; S2V slower than V2S at small sizes, faster at large",
		Header: []string{"rows", "V2S (s)", "S2V (s)"},
	}
	targets := []float64{1e6, 1e7, 1e8, 1e9}
	for _, target := range targets {
		scale := target / float64(rows)
		f, err := newFabric(4, 8, 0)
		if err != nil {
			return nil, err
		}
		s2v, err := f.runS2V(d1Builder(rows, d1Cols, 128), "d1", 128, scale, nil)
		if err != nil {
			return nil, err
		}
		v2s, err := f.runV2S("d1", 32, scale, nil, nil)
		if err != nil {
			return nil, err
		}
		logf(cfg, "fig7 rows=%.0g: V2S %.0fs S2V %.0fs", target, v2s, s2v)
		rep.Rows = append(rep.Rows, []string{fmt.Sprintf("%.0fM", target/1e6), secs(v2s), secs(s2v)})
	}
	return rep, nil
}

// runFig8 scales cluster and data together.
func runFig8(cfg RunConfig) (*Report, error) {
	rows := realRows(cfg, 40_000)
	rep := &Report{
		ID:     "fig8",
		Title:  "Varying the cluster sizes (2x data per doubling; fixed data per node)",
		Paper:  "slight (<10%) degradation per doubling",
		Header: []string{"cluster", "rows", "V2S parts", "S2V parts", "V2S (s)", "S2V (s)"},
	}
	cases := []struct {
		v, s       int
		target     float64
		v2sP, s2vP int
	}{
		{2, 4, 100e6, 16, 64},
		{4, 8, 200e6, 32, 128},
		{8, 16, 400e6, 64, 256},
	}
	for _, c := range cases {
		scale := c.target / float64(rows)
		f, err := newFabric(c.v, c.s, 0)
		if err != nil {
			return nil, err
		}
		s2v, err := f.runS2V(d1Builder(rows, d1Cols, c.s2vP), "d1", c.s2vP, scale, nil)
		if err != nil {
			return nil, err
		}
		v2s, err := f.runV2S("d1", c.v2sP, scale, nil, nil)
		if err != nil {
			return nil, err
		}
		logf(cfg, "fig8 %d:%d: V2S %.0fs S2V %.0fs", c.v, c.s, v2s, s2v)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d:%d", c.v, c.s),
			fmt.Sprintf("%.0fM", c.target/1e6),
			fmt.Sprint(c.v2sP), fmt.Sprint(c.s2vP),
			secs(v2s), secs(s2v),
		})
	}
	return rep, nil
}

// runFig9 compares the two shapes of D1 with equal cell counts.
func runFig9(cfg RunConfig) (*Report, error) {
	rows := realRows(cfg, 40_000)
	rep := &Report{
		ID:     "fig9",
		Title:  "Varying the data dimensionality (10,000M cells both ways)",
		Paper:  "1 col x 10,000M rows substantially slower than 100 cols x 100M rows (per-row overhead)",
		Header: []string{"shape", "V2S (s)", "S2V (s)"},
	}
	shapes := []struct {
		name     string
		cols     int
		realRows int64
		target   float64
	}{
		{"100 cols x 100M rows", 100, rows, 100e6},
		{"1 col x 10000M rows", 1, rows * 25, 10000e6},
	}
	for _, sh := range shapes {
		scale := sh.target / float64(sh.realRows)
		f, err := newFabric(4, 8, 0)
		if err != nil {
			return nil, err
		}
		s2v, err := f.runS2V(d1Builder(sh.realRows, sh.cols, 128), "d1", 128, scale, nil)
		if err != nil {
			return nil, err
		}
		v2s, err := f.runV2S("d1", 32, scale, nil, nil)
		if err != nil {
			return nil, err
		}
		logf(cfg, "fig9 %s: V2S %.0fs S2V %.0fs", sh.name, v2s, s2v)
		rep.Rows = append(rep.Rows, []string{sh.name, secs(v2s), secs(s2v)})
	}
	return rep, nil
}

// runTable3 measures dataset D2.
func runTable3(cfg RunConfig) (*Report, error) {
	rows := realRows(cfg, 400_000)
	scale := d2TargetRows / float64(rows)
	rep := &Report{
		ID:     "table3",
		Title:  "Performance with dataset D2 (tweets, 1.46B rows, 140 GB)",
		Paper:  "V2S 378 s; S2V 386 s (vs D1: 490 s / 252 s)",
		Header: []string{"direction", "time (s)"},
	}
	f, err := newFabric(4, 8, 0)
	if err != nil {
		return nil, err
	}
	build := func(sc *spark.Context) *spark.DataFrame {
		return workload.D2DataFrame(sc, rows, 128, 2)
	}
	s2v, err := f.runS2V(build, "d2", 128, scale, nil)
	if err != nil {
		return nil, err
	}
	v2s, err := f.runV2S("d2", 32, scale, nil, nil)
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows,
		[]string{"V2S", secs(v2s)},
		[]string{"S2V", secs(s2v)},
	)
	rep.Notes = append(rep.Notes, fmt.Sprintf("real run: %d rows, scaled x%.0f", rows, scale))
	return rep, nil
}

func init() {
	register(Experiment{
		ID:    "fig10",
		Title: "Load: V2S vs JDBC Default Source, with/without 5% selectivity pushdown",
		Run:   runFig10,
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Save: S2V vs JDBC Default Source at 1 / 1K / 10K / 1M rows",
		Run:   runFig11,
	})
	register(Experiment{
		ID:    "fig12",
		Title: "V2S and S2V vs native HDFS read/write (separate 4-node HDFS cluster)",
		Run:   runFig12,
	})
	register(Experiment{
		ID:    "table4",
		Title: "Save: S2V vs Vertica's native parallel COPY",
		Run:   runTable4,
	})
	register(Experiment{
		ID:    "md",
		Title: "Model deployment: PMML deploy + in-database scoring throughput (real time)",
		Run:   runMD,
	})
	register(Experiment{
		ID:    "ablation_locality",
		Title: "Ablation: V2S with hash-ring locality disabled (scattered range queries)",
		Run:   runAblationLocality,
	})
	register(Experiment{
		ID:    "ablation_encoding",
		Title: "Ablation: S2V task encoding, raw Avro vs CSV",
		Run:   runAblationEncoding,
	})
}

// runFig10 compares loads: pushdown keeps both cheap; without pushdown V2S's
// locality wins ~4x.
func runFig10(cfg RunConfig) (*Report, error) {
	rows := realRows(cfg, 40_000)
	scale := d1TargetRows / float64(rows)
	rep := &Report{
		ID:     "fig10",
		Title:  "Load: V2S vs JDBC Default Source (D1 + integer column, 100M rows)",
		Paper:  "with 5% pushdown: similar; without pushdown: V2S ~4x faster",
		Header: []string{"method", "pushdown", "time (s)"},
	}
	f, err := newFabric(4, 8, 0)
	if err != nil {
		return nil, err
	}
	build := func(sc *spark.Context) *spark.DataFrame {
		return workload.D1WithIntDataFrame(sc, rows, d1Cols, 64, 1)
	}
	if _, err := f.runS2V(build, "d1int", 64, 1, nil); err != nil {
		return nil, err
	}
	// 5% selectivity spread uniformly over the stride partitions (c0 is
	// uniform in [0,1)); filtering on the stride column itself would empty
	// most JDBC partitions.
	sel := []spark.Filter{spark.LessThan{Col: "c0", Value: types.FloatValue(0.05)}}
	cases := []struct {
		name string
		push bool
		run  func() (float64, error)
	}{
		{"V2S", true, func() (float64, error) { return f.runV2S("d1int", 32, scale, sel, nil) }},
		{"V2S", false, func() (float64, error) { return f.runV2S("d1int", 32, scale, nil, nil) }},
		{"JDBC", true, func() (float64, error) {
			return f.runJDBCLoad("d1int", "pcol", 0, 100, 32, scale, sel)
		}},
		{"JDBC", false, func() (float64, error) {
			return f.runJDBCLoad("d1int", "pcol", 0, 100, 32, scale, nil)
		}},
	}
	for _, c := range cases {
		t, err := c.run()
		if err != nil {
			return nil, fmt.Errorf("fig10 %s pushdown=%v: %w", c.name, c.push, err)
		}
		logf(cfg, "fig10 %s push=%v: %.0fs", c.name, c.push, t)
		rep.Rows = append(rep.Rows, []string{c.name, fmt.Sprint(c.push), secs(t)})
	}
	return rep, nil
}

// runFig11 compares small and bulk saves.
func runFig11(cfg RunConfig) (*Report, error) {
	rep := &Report{
		ID:     "fig11",
		Title:  "Save: S2V vs JDBC Default Source",
		Paper:  "1 row: S2V 5 s vs JDBC 3 s (overheads); 1M rows: S2V 19 s, JDBC stopped after 3 h",
		Header: []string{"rows", "S2V (s)", "JDBC (s)"},
	}
	cases := []struct {
		target   int64
		realRows int64
		parts    int
	}{
		{1, 1, 1},
		{1_000, 1_000, 4},
		{10_000, 10_000, 4},
		{1_000_000, 50_000, 16},
	}
	for _, c := range cases {
		scale := float64(c.target) / float64(c.realRows)
		f, err := newFabric(4, 8, 0)
		if err != nil {
			return nil, err
		}
		build := d1Builder(c.realRows, d1Cols, c.parts)
		s2v, err := f.runS2V(build, "tgt", c.parts, scale, nil)
		if err != nil {
			return nil, err
		}
		// Spark 1.5's JDBC writer saves with the frame's own partitioning;
		// the paper's >3 h figure for 1M rows is consistent with an
		// effectively serial INSERT stream.
		jdbc, err := f.runJDBCSave(d1Builder(c.realRows, d1Cols, 1), "tgt_jdbc", scale)
		if err != nil {
			return nil, err
		}
		logf(cfg, "fig11 rows=%d: S2V %.0fs JDBC %.0fs", c.target, s2v, jdbc)
		rep.Rows = append(rep.Rows, []string{fmt.Sprint(c.target), secs(s2v), secs(jdbc)})
	}
	rep.Notes = append(rep.Notes, "the 1M-row JDBC figure is simulated; the paper stopped the real run after 3 hours")
	return rep, nil
}

// runFig12 compares the connector against native HDFS read/write using a
// separate 4-node HDFS cluster, as in §4.7.2.
func runFig12(cfg RunConfig) (*Report, error) {
	rows := realRows(cfg, 40_000)
	scale := d1TargetRows / float64(rows)
	rep := &Report{
		ID:     "fig12",
		Title:  "V2S/S2V vs HDFS read/write (D1, 100M rows; HDFS gets its own 4-node cluster)",
		Paper:  "HDFS read ~30% faster than V2S (2240 block partitions); HDFS write ~ S2V",
		Header: []string{"method", "time (s)"},
	}
	f, err := newFabric(4, 8, 4)
	if err != nil {
		return nil, err
	}
	// Target: the paper's dataset is 2240 HDFS blocks; size the real files
	// so the real run also has 2240 (scaled-down) blocks.
	estBytes := float64(rows) * float64(d1Cols) * 12 // WireSize estimate per cell
	blockBytes := int(estBytes / 2240)
	if blockBytes < 1024 {
		blockBytes = 1024
	}

	s2v, err := f.runS2V(d1Builder(rows, d1Cols, 128), "d1", 128, scale, nil)
	if err != nil {
		return nil, err
	}
	v2s, err := f.runV2S("d1", 32, scale, nil, nil)
	if err != nil {
		return nil, err
	}

	// HDFS write.
	f.resetTrace()
	df := workload.D1DataFrame(f.sc, rows, d1Cols, 128, 1)
	if err := hdfssource.Write(f.hfs, "bench/d1", df, blockBytes); err != nil {
		return nil, err
	}
	hw, _, err := f.simulate(scale, sim.Config{})
	if err != nil {
		return nil, err
	}
	// HDFS read: one partition per block.
	f.resetTrace()
	rdf, err := hdfssource.Read(f.sc, f.hfs, "bench/d1")
	if err != nil {
		return nil, err
	}
	rrdd, err := rdf.RDD()
	if err != nil {
		return nil, err
	}
	if _, err := rrdd.Count(); err != nil {
		return nil, err
	}
	hr, _, err := f.simulate(scale, sim.Config{})
	if err != nil {
		return nil, err
	}
	blocks := f.hfs.TotalBlocks("bench/d1")
	logf(cfg, "fig12: V2S %.0fs HDFSread %.0fs | S2V %.0fs HDFSwrite %.0fs (%d blocks)", v2s, hr, s2v, hw, blocks)
	rep.Rows = append(rep.Rows,
		[]string{"V2S load", secs(v2s)},
		[]string{"HDFS read", secs(hr)},
		[]string{"S2V save", secs(s2v)},
		[]string{"HDFS write", secs(hw)},
	)
	rep.Notes = append(rep.Notes, fmt.Sprintf("HDFS dataset has %d blocks (paper: 2240), 3x replication", blocks))
	return rep, nil
}

// runTable4 compares S2V against the native parallel COPY baseline across
// file-split counts.
func runTable4(cfg RunConfig) (*Report, error) {
	rows := realRows(cfg, 40_000)
	scale := d1TargetRows / float64(rows)
	rep := &Report{
		ID:     "table4",
		Title:  "Save: S2V vs Vertica native parallel COPY (D1, 100M rows)",
		Paper:  "COPY best 238 s @8 file parts; S2V best 252 s @128 partitions (~6% slower)",
		Header: []string{"method", "parallelism", "time (s)"},
	}
	f, err := newFabric(4, 8, 0)
	if err != nil {
		return nil, err
	}
	best, bestParts := 0.0, 0
	for _, parts := range []int{4, 8, 16, 32, 64, 128} {
		t, err := f.runNativeCopy(rows, d1Cols, parts, scale)
		if err != nil {
			return nil, fmt.Errorf("table4 copy parts=%d: %w", parts, err)
		}
		logf(cfg, "table4 COPY parts=%d: %.0fs", parts, t)
		rep.Rows = append(rep.Rows, []string{"COPY", fmt.Sprint(parts), secs(t)})
		if best == 0 || t < best {
			best, bestParts = t, parts
		}
	}
	s2v, err := f.runS2V(d1Builder(rows, d1Cols, 128), "d1", 128, scale, nil)
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, []string{"S2V", "128", secs(s2v)})
	rep.Notes = append(rep.Notes, fmt.Sprintf("best COPY: %s @%d parts; S2V/COPY = %.2f", secs(best), bestParts, s2v/best))
	return rep, nil
}

// runMD exercises the full §3.3 pipeline and reports real (not simulated)
// in-database scoring throughput.
func runMD(cfg RunConfig) (*Report, error) {
	rows := int(realRows(cfg, 20_000))
	f, err := newFabric(4, 4, 0)
	if err != nil {
		return nil, err
	}
	if err := core.InstallPMMLSupport(f.cluster); err != nil {
		return nil, err
	}
	// Train in Spark, export PMML, deploy.
	iris := workload.IrisRows(rows, 7)
	var pts []mllib.LabeledPoint
	for _, r := range iris {
		pts = append(pts, mllib.LabeledPoint{
			Label:    float64(r[4].I),
			Features: mllib.Vector{r[0].F, r[1].F, r[2].F, r[3].F},
		})
	}
	model, err := mllib.TrainLogisticRegression(spark.Parallelize(f.sc, pts, 4), 100, 1.0)
	if err != nil {
		return nil, err
	}
	doc, err := model.ToPMML([]string{"sepal_length", "sepal_width", "petal_length", "petal_width"}, "species")
	if err != nil {
		return nil, err
	}
	deployStart := time.Now()
	if err := core.DeployPMMLModel(f.cluster, "iris_logit", doc); err != nil {
		return nil, err
	}
	deploySecs := time.Since(deployStart).Seconds()

	if err := f.sql("DROP TABLE IF EXISTS iristable", "CREATE TABLE iristable "+workload.IrisSchema().String()); err != nil {
		return nil, err
	}
	s, err := f.cluster.Connect(0)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	// Bulk-load the rows via COPY.
	if _, err := s.CopyFrom("COPY iristable FROM STDIN FORMAT CSV DIRECT",
		bytesReader(workload.CSVBytes(iris))); err != nil {
		return nil, err
	}
	scoreStart := time.Now()
	res, err := s.Execute("SELECT PMMLPredict(sepal_length, sepal_width, petal_length, petal_width USING PARAMETERS model_name='iris_logit') AS pred, species FROM iristable")
	if err != nil {
		return nil, err
	}
	scoreSecs := time.Since(scoreStart).Seconds()
	correct := 0
	for _, r := range res.Rows {
		if int64(r[0].F) == r[1].I {
			correct++
		}
	}
	acc := float64(correct) / float64(len(res.Rows))
	rep := &Report{
		ID:     "md",
		Title:  "Model deployment (MD): Spark-trained logistic regression scored in-database",
		Paper:  "no figure; §3.3 demonstrates PMMLPredict over IrisTable",
		Header: []string{"metric", "value"},
	}
	rep.Rows = append(rep.Rows,
		[]string{"rows scored", fmt.Sprint(len(res.Rows))},
		[]string{"deploy time", fmt.Sprintf("%.3f s", deploySecs)},
		[]string{"scoring time (real)", fmt.Sprintf("%.3f s", scoreSecs)},
		[]string{"scoring throughput", fmt.Sprintf("%.0f rows/s", float64(len(res.Rows))/scoreSecs)},
		[]string{"in-database accuracy", fmt.Sprintf("%.3f", acc)},
	)
	return rep, nil
}

// runAblationLocality quantifies §3.1.2's locality optimization, on the
// paper's dual-network testbed and on shared-NIC hardware. On dual NICs the
// wall-clock cost of scattered ranges is small — the win is the eliminated
// intra-cluster traffic and Vertica resource usage ("it also does not induce
// intra-node traffic ... leading to less Vertica resource usage overall");
// on a single shared NIC the gather traffic competes with the result stream
// and locality wins outright.
func runAblationLocality(cfg RunConfig) (*Report, error) {
	rows := realRows(cfg, 40_000)
	scale := d1TargetRows / float64(rows)
	f, err := newFabric(4, 8, 0)
	if err != nil {
		return nil, err
	}
	if _, err := f.runS2V(d1Builder(rows, d1Cols, 64), "d1", 64, scale, nil); err != nil {
		return nil, err
	}
	shuffleGB := func() float64 {
		total := 0.0
		for _, rec := range f.trace.Tasks() {
			for _, e := range rec.Events() {
				for _, b := range e.Shuffle {
					total += b
				}
			}
		}
		return total * scale / 1e9
	}
	rep := &Report{
		ID:     "ablation_locality",
		Title:  "V2S hash-ring locality on vs off (D1, 100M rows, 32 partitions)",
		Paper:  "locality eliminates intra-Vertica traffic and is part of the ~4x Figure 10 win",
		Header: []string{"variant", "network", "time (s)", "intra-Vertica traffic"},
	}
	for _, nets := range []struct {
		name   string
		single bool
	}{{"dual NIC (paper)", false}, {"single shared NIC", true}} {
		f.model.SingleNetwork = nets.single
		on, err := f.runV2S("d1", 32, scale, nil, nil)
		if err != nil {
			return nil, err
		}
		onShuffle := shuffleGB()
		off, err := f.runV2S("d1", 32, scale, nil, map[string]string{"disable_locality_optimization": "true"})
		if err != nil {
			return nil, err
		}
		offShuffle := shuffleGB()
		rep.Rows = append(rep.Rows,
			[]string{"locality ON", nets.name, secs(on), fmt.Sprintf("%.0f GB", onShuffle)},
			[]string{"locality OFF", nets.name, secs(off), fmt.Sprintf("%.0f GB", offShuffle)},
		)
		rep.Notes = append(rep.Notes, fmt.Sprintf("%s: slowdown without locality %.2fx", nets.name, off/on))
	}
	f.model.SingleNetwork = false
	return rep, nil
}

// runAblationEncoding quantifies the Avro choice of §3.2.2. S2V sends its
// Avro blocks raw (core.encodeRows), so the comparison is of encodings alone.
func runAblationEncoding(cfg RunConfig) (*Report, error) {
	rows := realRows(cfg, 40_000)
	scale := d1TargetRows / float64(rows)
	f, err := newFabric(4, 8, 0)
	if err != nil {
		return nil, err
	}
	avroT, err := f.runS2V(d1Builder(rows, d1Cols, 128), "d1", 128, scale, nil)
	if err != nil {
		return nil, err
	}
	csvT, err := f.runS2V(d1Builder(rows, d1Cols, 128), "d1csv", 128, scale, map[string]string{"copy_format": "csv"})
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:     "ablation_encoding",
		Title:  "S2V task encoding: raw Avro vs CSV (D1, 100M rows, 128 partitions)",
		Paper:  "§3.2.2 picks Avro: binary, no delimiter problem, compresses",
		Header: []string{"encoding", "time (s)"},
	}
	rep.Rows = append(rep.Rows,
		[]string{"Avro (raw)", secs(avroT)},
		[]string{"CSV", secs(csvT)},
	)
	rep.Notes = append(rep.Notes, fmt.Sprintf("CSV/Avro time ratio: %.2f", csvT/avroT))
	return rep, nil
}
