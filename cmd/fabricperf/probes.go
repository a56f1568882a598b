package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"vsfabric/internal/avro"
	"vsfabric/internal/client"
	"vsfabric/internal/perf"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vexec"
	"vsfabric/internal/vhash"
	"vsfabric/internal/vsql"
	"vsfabric/internal/wal"
	"vsfabric/internal/workload"
)

// A probe times one layer through its public functions, outside the system:
// what that layer costs on the workload's own data with nothing around it.
// Probes run after the traced window, on the traced run's fabric.
type probe func(f *fabric, o *oracle, w *workloadDef, m map[string]float64) error

// timed returns the median wall time of reps calls of fn, in seconds.
func timed(reps int, fn func() error) (float64, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return perf.Median(ds), nil
}

func us(seconds float64) float64 { return seconds * 1e6 }

// generate materializes rows [lo,hi) of the d1 dataset for seed.
func generate(seed uint64, lo, hi int64) []types.Row {
	rows := make([]types.Row, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rows = append(rows, workload.D1WithIntRow(i, d1Cols, seed))
	}
	return rows
}

// inProc opens a session straight into the cluster: the engine without the
// wire.
func inProc(f *fabric) (client.Conn, error) { return client.InProc(f.cl).Connect(bg, f.host) }

// wireBatchRows mirrors the server's result chunking (internal/server).
const wireBatchRows = 16384

// probeCodec is server.codec_*: storage.EncodeRows and DecodeRows over one
// job's whole result in the server's chunk size — the codec's share of
// server.wire_self_s.
func probeCodec(f *fabric, _ *oracle, w *workloadDef, m map[string]float64) error {
	conn, err := inProc(f)
	if err != nil {
		return err
	}
	defer conn.Close()
	res, err := conn.Execute(bg, w.scanSQL)
	if err != nil {
		return err
	}
	var chunks [][]byte
	enc, err := timed(3, func() error {
		chunks = chunks[:0]
		for rows := res.Rows; len(rows) > 0; {
			n := min(len(rows), wireBatchRows)
			b, err := storage.EncodeRows(res.Schema, rows[:n])
			if err != nil {
				return err
			}
			chunks = append(chunks, b)
			rows = rows[n:]
		}
		return nil
	})
	if err != nil {
		return err
	}
	dec, err := timed(3, func() error {
		for _, b := range chunks {
			if _, _, err := storage.DecodeRows(b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	total := 0
	for _, b := range chunks {
		total += len(b)
	}
	m["server.codec_encode_s"], m["server.codec_decode_s"], m["server.codec_bytes"] = enc, dec, float64(total)
	return nil
}

// probeProfile is vertica.scan_us / groupby_us / join_us: the operator rows
// of PROFILE <select>, through an in-process session.
func probeProfile(f *fabric, _ *oracle, w *workloadDef, m map[string]float64) error {
	conn, err := inProc(f)
	if err != nil {
		return err
	}
	defer conn.Close()
	// operator sums the duration_us of the PROFILE rows whose operator name
	// starts with prefix, as the median over three runs.
	operator := func(sql, prefix string) (float64, error) {
		var runs []float64
		for i := 0; i < 3; i++ {
			res, err := conn.Execute(bg, "PROFILE "+sql)
			if err != nil {
				return 0, err
			}
			total := 0.0
			for _, r := range res.Rows {
				if strings.HasPrefix(r[0].S, prefix) {
					total += float64(r[5].I)
				}
			}
			runs = append(runs, total)
		}
		return perf.Median(runs), nil
	}
	if m["vertica.scan_us"], err = operator(w.scanSQL, "scan"); err != nil {
		return err
	}
	if !w.mix {
		return nil
	}
	if m["vertica.groupby_us"], err = operator(groupbySQL, "group-by"); err != nil {
		return err
	}
	m["vertica.join_us"], err = operator(joinSQL, "join")
	return err
}

// probeParse is vsql.parse_us: vsql.Parse over one of each mix statement.
func probeParse(_ *fabric, _ *oracle, _ *workloadDef, m map[string]float64) error {
	stmts := []string{pointSQL(7), filterSQL(7), groupbySQL, joinSQL, insertSQL(1, 7, 0.5)}
	d, err := timed(200, func() error {
		for _, s := range stmts {
			if _, err := vsql.Parse(s); err != nil {
				return err
			}
		}
		return nil
	})
	m["vsql.parse_us"] = us(d) / float64(len(stmts))
	return err
}

// probeInProc is vertica.exec_us.<class>: each mix statement through
// client.InProc — parse, plan, admission and execution, no wire.
func probeInProc(f *fabric, _ *oracle, _ *workloadDef, m map[string]float64) error {
	conn, err := inProc(f)
	if err != nil {
		return err
	}
	defer conn.Close()
	for _, c := range []struct {
		class, sql string
		reps       int
	}{
		{"point", pointSQL(7), 200},
		{"filter", filterSQL(7), 100},
		{"groupby", groupbySQL, 20},
		{"join", joinSQL, 3},
		{"insert", "", 50},
	} {
		d, err := timed(c.reps, func() error {
			sql := c.sql
			if c.class == "insert" {
				sql = insertSQL(f.eventID.Add(1), 7, 0.5)
			}
			res, err := conn.Execute(bg, sql)
			if err == nil && c.class == "insert" {
				f.inserted.Add(res.RowsAffected)
			}
			return err
		})
		if err != nil {
			return err
		}
		m["vertica.exec_us."+c.class] = us(d)
	}
	return nil
}

// probeKernels is storage.* and vexec.*: a standalone storage.Store over the
// generated d1 rows, in as many containers as a load writes, scanned with
// the workload's predicate; then the typed kernels run directly on those
// batches. rows_scanned and containers_pruned come from the system's own
// v_monitor.query_plans: the physical rows visited and the containers its
// zone maps skipped, averaged over the statements it last planned against d1.
func probeKernels(f *fabric, _ *oracle, w *workloadDef, m map[string]float64) error {
	schema := workload.D1WithIntSchema(d1Cols)
	store := storage.NewStore(schema, nil)
	const epoch = 1
	for p := 0; p < partitions(); p++ {
		rows := generate(f.seed, int64(d1Rows*p/partitions()), int64(d1Rows*(p+1)/partitions()))
		if err := store.AppendROS(rows, epoch); err != nil {
			return err
		}
	}
	var pred *vexec.Pred
	if where := w.scanSQL; strings.Contains(where, "WHERE") {
		stmt, err := vsql.Parse(where)
		if err != nil {
			return err
		}
		pred = vexec.Compile(stmt.(*vsql.Select).Where, schema, nil)
	}
	vis, ring := storage.Visibility{Epoch: epoch}, vhash.Range{Lo: 0, Hi: vhash.RingSize}
	scan := func() ([]*storage.Batch, error) {
		var out []*storage.Batch
		var prune func([]storage.ColStats, int) bool
		if pred != nil {
			prune = pred.CanPrune
		}
		err := store.ScanBatchesPruned(vis, ring, prune, func(b *storage.Batch) bool {
			out = append(out, b)
			return true
		})
		return out, err
	}
	var err error
	if m["storage.scan_s"], err = timed(5, func() error { _, err := scan(); return err }); err != nil {
		return err
	}
	if pred != nil {
		if m["vexec.filter_s"], err = timed(5, func() error {
			batches, err := scan()
			for _, b := range batches {
				if err == nil {
					err = pred.FilterBatch(b)
				}
			}
			return err
		}); err != nil {
			return err
		}
		// FilterBatch narrows a fresh scan's selection vectors, so the scan
		// is inside the timed call; take it back out.
		m["vexec.filter_s"] = max(0, m["vexec.filter_s"]-m["storage.scan_s"])
	}
	if w.mix {
		if err := kernelAggJoin(store, scan, m); err != nil {
			return err
		}
	}

	conn, err := inProc(f)
	if err != nil {
		return err
	}
	defer conn.Close()
	res, err := conn.Execute(bg, "SELECT estimated_rows, containers_pruned FROM v_monitor.query_plans WHERE anchor_table = 'd1'")
	if err != nil {
		return err
	}
	var rows, pruned []float64
	for _, r := range res.Rows {
		rows = append(rows, float64(r[0].I))
		pruned = append(pruned, float64(r[1].I))
	}
	m["storage.rows_scanned"], m["storage.containers_pruned"] = mean(rows), mean(pruned)
	return nil
}

// kernelAggJoin times the mix's GROUP BY through vexec.HashAgg and the first
// step of its join (d1 ⋈ dim_a on pcol) through vexec.JoinBatches.
func kernelAggJoin(store *storage.Store, scan func() ([]*storage.Batch, error), m map[string]float64) error {
	batches, err := scan()
	if err != nil {
		return err
	}
	schema := store.Schema()
	spec := vexec.AggSpec{GroupCols: []int{0}, Aggs: []vexec.AggExpr{
		{Op: vexec.AggCount, Col: -1}, {Op: vexec.AggSum, Col: 2}, {Op: vexec.AggAvg, Col: 3},
	}}
	if m["vexec.agg_s"], err = timed(5, func() error {
		agg := vexec.NewHashAgg(spec, schema)
		for _, b := range batches {
			agg.Consume(b)
		}
		if agg.NumGroups() != dimA {
			return fmt.Errorf("vexec.HashAgg found %d groups, want %d", agg.NumGroups(), dimA)
		}
		return nil
	}); err != nil {
		return err
	}

	dimSchema := types.NewSchema(types.Column{Name: "pcol", T: types.Int64}, types.Column{Name: "grp", T: types.Int64})
	dim := storage.NewStore(dimSchema, nil)
	var dimRows []types.Row
	for p := int64(0); p < dimA; p++ {
		dimRows = append(dimRows, types.Row{types.IntValue(p), types.IntValue(p % dimB)})
	}
	if err := dim.AppendROS(dimRows, 1); err != nil {
		return err
	}
	var right []*storage.Batch
	if err := dim.ScanBatches(storage.Visibility{Epoch: 1}, vhash.Range{Lo: 0, Hi: vhash.RingSize}, func(b *storage.Batch) bool {
		right = append(right, b)
		return true
	}); err != nil {
		return err
	}
	m["vexec.join_s"], err = timed(5, func() error {
		pairs := 0
		vexec.JoinBatches(batches, 0, right, 0, false, func(_, _, _, _ int32) { pairs++ })
		if pairs != d1Rows {
			return fmt.Errorf("vexec.JoinBatches matched %d pairs, want %d", pairs, d1Rows)
		}
		return nil
	})
	return err
}

// probeSparkGen is spark.gen_s: Count() over the DataFrame s2v_save writes,
// with no connector — what generating the rows costs inside the job.
func probeSparkGen(f *fabric, _ *oracle, _ *workloadDef, m map[string]float64) error {
	df := s2vDataFrame(f)
	d, err := timed(3, func() error {
		n, err := df.Count()
		if err == nil && n != s2vRows {
			err = fmt.Errorf("generated %d rows, want %d", n, s2vRows)
		}
		return err
	})
	m["spark.gen_s"] = d
	return err
}

// probeAvro is avro.*: one S2V job's rows through avro.NewWriter with the
// connector's codec and block size, then back through avro.ReadAll.
func probeAvro(f *fabric, _ *oracle, _ *workloadDef, m map[string]float64) error {
	schema := workload.D1WithIntSchema(d1Cols)
	rows := generate(f.seed+1, 0, s2vRows)
	var buf bytes.Buffer
	enc, err := timed(3, func() error {
		buf.Reset()
		w, err := avro.NewWriter(&buf, avro.FromTypes(schema), avro.CodecDeflate, 4096)
		if err != nil {
			return err
		}
		for _, r := range rows {
			if err := w.Append(r); err != nil {
				return err
			}
		}
		return w.Close()
	})
	if err != nil {
		return err
	}
	dec, err := timed(3, func() error {
		_, back, err := avro.ReadAll(bytes.NewReader(buf.Bytes()))
		if err == nil && len(back) != len(rows) {
			err = fmt.Errorf("avro round trip returned %d rows, want %d", len(back), len(rows))
		}
		return err
	})
	m["avro.encode_s"], m["avro.decode_s"], m["avro.bytes_per_row"] = enc, dec, float64(buf.Len())/float64(len(rows))
	return err
}

// probeFsync is wal.fsync_ms: Append of one small record plus Sync on a
// scratch log in the cluster's DataDir, the cost floor of an autocommit.
func probeFsync(f *fabric, _ *oracle, _ *workloadDef, m map[string]float64) error {
	log, err := wal.Open(filepath.Join(f.dir, "fsync-probe.log"))
	if err != nil {
		return err
	}
	d, err := timed(50, func() error {
		if err := log.Append(wal.Record{Type: wal.RecCommit, Tag: 1, Epoch: 1}); err != nil {
			return err
		}
		return log.Sync()
	})
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	m["wal.fsync_ms"] = ms(d)
	return err
}
