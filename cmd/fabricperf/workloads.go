package main

import (
	"context"
	"fmt"

	"vsfabric/internal/core"
	"vsfabric/internal/perf"
	"vsfabric/internal/spark"
	"vsfabric/internal/types"
	"vsfabric/internal/workload"
)

// oracle is what the generator says the datasets hold.
type oracle struct {
	d1  *expected // d1, seed
	s2v *expected // the rows s2v_save writes, seed+1
}

func newOracle(seed uint64) *oracle {
	return &oracle{d1: expect(seed, d1Rows), s2v: expect(seed+1, s2vRows)}
}

// session is one window's worth of a workload: the closed-loop operation
// with whatever connections and DataFrames it needs, opened under the
// fabric's current tracer.
type session struct {
	clients int
	// blockLen: a client stops only after a multiple of this many
	// operations, so every window of sql_mix holds whole blocks and so the
	// same share of each statement class.
	blockLen int
	op       perf.Op
	// close releases the session's connections after running its
	// end-of-window check.
	close func() error
}

// workloadDef is one of the four named workloads.
type workloadDef struct {
	name string
	// why is BENCHMARK.json's one-line rationale.
	why string
	// primary is the end-to-end metric the tracing overhead is judged on.
	primary string
	open    func(f *fabric, o *oracle) (*session, error)
	// metrics turns a window's statistics into the workload's end-to-end
	// metrics.
	metrics func(r *result, s perf.LoopStats)
	// warm opens the warm-up session, of which one block runs; nil means
	// open (one job).
	warm func(f *fabric, o *oracle) (*session, error)
	// scanSQL is the statement whose result one operation moves (for
	// sql_mix, its filter statement): what the codec, PROFILE and kernel
	// probes run.
	scanSQL string
	// mix marks the statement mix: its probes also cover group-by and join.
	mix bool
	// userBytesPerOp is the raw width of what one operation asks the
	// database to store, 8 bytes per INT or FLOAT cell, for WAL write
	// amplification; 0 for read-only workloads.
	userBytesPerOp float64
	probes         []probe
}

var workloads = []workloadDef{
	{
		name:    "v2s_full",
		why:     "V2S load of all 300k d1 rows x 11 cols into an RDD, closed loop, 2 executors/4 partitions, loopback TCP: result encode/decode and boxing dominate, planning is nil",
		primary: "rows_per_s",
		metrics: jobMetrics,
		open:    openV2S(false),
		scanSQL: "SELECT * FROM d1",
		probes:  []probe{probeCodec, probeKernels, probeProfile},
	},
	{
		name:    "v2s_pushdown",
		why:     "same V2S call with pcol<5 and 2 of 11 columns (5% of rows, ~1% of bytes): scan kernels, zone maps and per-job fixed cost (layout, epoch pin, 7 dials) dominate; codec must not show",
		primary: "rows_per_s",
		metrics: jobMetrics,
		open:    openV2S(true),
		scanSQL: fmt.Sprintf("SELECT pcol, c0 FROM d1 WHERE pcol < %d", pushdownCut),
		probes:  []probe{probeCodec, probeKernels, probeProfile},
	},
	{
		name:           "s2v_save",
		why:            "S2V overwrite of 150k generated rows, 5 phases, Avro COPY, WAL fsync on commit (DataDir on the checkout's fs), untimed checkpoint between jobs: write side of the same layers",
		primary:        "rows_per_s",
		metrics:        jobMetrics,
		open:           openS2V,
		userBytesPerOp: s2vRows * (1 + d1Cols) * 8,
		probes:         []probe{probeSparkGen, probeAvro, probeFsync},
	},
	{
		name:    "sql_mix",
		why:     "2 TCP connections, closed loop over seeded 100-stmt blocks: 60 point, 20 filter, 8 group-by, 2 three-way join, 10 autocommit insert (fsync each, WOS moveout every 16 rows): tiny results",
		primary: "stmt_per_s",
		metrics: sqlMetrics,
		open:    func(f *fabric, o *oracle) (*session, error) { return openMixSession(f, o, nproc, mixBlock(true)) },
		warm:    func(f *fabric, o *oracle) (*session, error) { return openMixSession(f, o, nproc, warmBlock()) },
		scanSQL: filterSQL(7),
		mix:     true,
		// One statement in ten inserts one 3-cell row.
		userBytesPerOp: 0.1 * 3 * 8,
		probes:         []probe{probeParse, probeInProc, probeProfile, probeKernels, probeFsync},
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// openV2S is v2s_full (pushdown=false) and v2s_pushdown: one V2S job per
// operation, planned from scratch each time as a fresh Spark action would.
func openV2S(pushdown bool) func(*fabric, *oracle) (*session, error) {
	return func(f *fabric, o *oracle) (*session, error) {
		what, want, c0col := "v2s_full", o.d1.all, 1
		if pushdown {
			what, want = "v2s_pushdown", o.d1.pushdown
		}
		op := func(ctx context.Context, _, _ int) perf.OpResult {
			_, sp := f.tr.Start(ctx, "core.v2s_plan")
			rdd, err := planV2S(f, pushdown)
			sp.End(err)
			if err != nil {
				return perf.OpResult{Class: "job", Err: err}
			}
			_, sp = f.tr.Start(ctx, "spark.collect")
			rows, err := rdd.Collect()
			sp.End(err)
			if err != nil {
				return perf.OpResult{Class: "job", Err: err}
			}
			return perf.OpResult{Class: "job", Rows: int64(len(rows)), After: func() error {
				return digest(rows, c0col).check(what, want)
			}}
		}
		return &session{clients: 1, blockLen: 1, op: op, close: func() error { return nil }}, nil
	}
}

// planV2S is the driver side of a V2S job: Load() discovers the layout,
// RDD() refreshes it, pins the epoch and plans the partitions.
func planV2S(f *fabric, pushdown bool) (*spark.RDD[types.Row], error) {
	df, err := f.sc.Read().Format(core.DefaultSourceName).Options(f.connectorOptions("d1")).Load()
	if err != nil {
		return nil, err
	}
	if pushdown {
		df = df.Where(spark.LessThan{Col: "pcol", Value: types.IntValue(pushdownCut)})
		if df, err = df.Select("pcol", "c0"); err != nil {
			return nil, err
		}
	}
	return df.RDD()
}

// s2vDataFrame is the DataFrame s2v_save writes: generated lazily inside the
// job's tasks, never materialized on the driver.
func s2vDataFrame(f *fabric) *spark.DataFrame {
	return workload.D1WithIntDataFrame(f.sc, s2vRows, d1Cols, partitions(), f.seed+1)
}

// openS2V is s2v_save: one overwrite job per operation. After the clock
// stops, the table is read back against the generator and the cluster is
// checkpointed so the WAL stays bounded from one iteration to the next.
func openS2V(f *fabric, o *oracle) (*session, error) {
	conn, err := f.conn.Connect(bg, f.host)
	if err != nil {
		return nil, err
	}
	df := s2vDataFrame(f)
	after := func() error {
		res, err := conn.Execute(bg, "SELECT COUNT(*), SUM(c0) FROM s2v_out")
		if err != nil {
			return err
		}
		if n, sum := res.Rows[0][0].I, res.Rows[0][1].F; n != o.s2v.all.n || !near(sum, o.s2v.sumC0) {
			return fmt.Errorf("s2v_save: table holds %d rows, SUM(c0)=%v; generator says %d, %v", n, sum, o.s2v.all.n, o.s2v.sumC0)
		}
		_, sp := f.tr.Start(bg, "vertica.checkpoint")
		err = f.cl.Checkpoint()
		sp.End(err)
		return err
	}
	op := func(ctx context.Context, _, _ int) perf.OpResult {
		_, sp := f.tr.Start(ctx, "spark.save")
		err := f.save(df, "s2v_out")
		sp.End(err)
		return perf.OpResult{Class: "job", Rows: s2vRows, Err: err, After: after}
	}
	return &session{clients: 1, blockLen: 1, op: op, close: func() error { conn.Close(); return nil }}, nil
}

// openMixSession is the statement mix as a session: each connection its own
// closed loop over block.
func openMixSession(f *fabric, o *oracle, clients int, block []string) (*session, error) {
	m, err := openMix(f, o.d1, clients, block)
	if err != nil {
		return nil, err
	}
	return &session{clients: clients, blockLen: m.blockLen(), op: m.op, close: func() error {
		defer m.close()
		return m.checkEvents()
	}}, nil
}
