package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"vsfabric/internal/obs"
	"vsfabric/internal/perf"
)

// drainEvery is how many blocks of operations a client lets pass between
// drains of the span log. A drain copies both collectors' rings, so it
// should be rare; the rings hold 4096 (cluster) and 8192 (tracer) spans and a
// block emits at most ~200 per client, so eight blocks cannot overflow them.
const drainEvery = 8

// setupRepeats: set-up is timed this many times per measured run and the
// median reported, so one slow fsync does not decide setup_s.
const setupRepeats = 3

// result is one run of one workload: the measured (trace off) form carries
// the end-to-end metrics, the traced form the per-layer ones.
type result struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	// FirstError is the first failed operation's error, if any.
	FirstError string `json:"first_error,omitempty"`
	// Metrics are the gated end-to-end values (measured run) or the
	// per-layer values (traced run), by name.
	Metrics map[string]float64 `json:"metrics"`
	// Samples are the distributions behind the metrics: rows_per_s over
	// iterations, latency in ms per statement class.
	Samples map[string]perf.Summary `json:"samples,omitempty"`
	// Layers is the traced run's self-time table, by span name.
	Layers []perf.LayerRow `json:"layers,omitempty"`
}

func (r *result) count(s perf.LoopStats) {
	r.Attempted += s.Attempted
	r.Failed += s.Failed
	if r.FirstError == "" && s.FirstErr != nil {
		r.FirstError = s.FirstErr.Error()
	}
}

// runWindow drives one session of w for at least d, ending each client on a
// block boundary. With a span log the fabric's tracer must be set: every
// operation then runs under a "bench.op" root span, and the log is drained
// at block boundaries, outside the timed region.
func runWindow(f *fabric, w *workloadDef, o *oracle, d time.Duration, log *perf.SpanLog) (perf.LoopStats, error) {
	s, err := w.open(f, o)
	if err != nil {
		return perf.LoopStats{}, err
	}
	return runSession(f, s, func(seq int, elapsed time.Duration) bool { return elapsed >= d }, log)
}

// runSession runs s until done says so at a block boundary, then closes it.
// A failed end-of-window check counts as one more failed operation.
func runSession(f *fabric, s *session, done func(seq int, elapsed time.Duration) bool, log *perf.SpanLog) (perf.LoopStats, error) {
	loop := perf.Loop{
		Clients: s.clients,
		Stop: func(_, seq int, elapsed time.Duration) bool {
			if seq%s.blockLen != 0 {
				return false
			}
			if log != nil && seq%(drainEvery*s.blockLen) == 0 {
				log.Drain()
			}
			return done(seq, elapsed)
		},
		Op: func(ctx context.Context, client, seq int) perf.OpResult {
			ctx, sp := f.tr.Start(ctx, "bench.op")
			r := s.op(ctx, client, seq)
			sp.End(r.Err)
			return r
		},
	}
	stats := loop.Run(bg)
	stats.Attempted++
	if err := s.close(); err != nil {
		stats.Failed++
		if stats.FirstErr == nil {
			stats.FirstErr = err
		}
	}
	if log != nil {
		log.Drain()
	}
	if stats.Attempted == stats.Failed {
		return stats, fmt.Errorf("every operation failed: %w", stats.FirstErr)
	}
	return stats, nil
}

// setUp opens a fabric and warms it: one block of operations per client,
// untimed as far as the workload's metrics go but part of setup_s.
func setUp(w *workloadDef, o *oracle, seed uint64) (*fabric, time.Duration, error) {
	t0 := time.Now()
	f, err := openFabric(seed)
	if err != nil {
		return nil, 0, err
	}
	open := w.warm
	if open == nil {
		open = w.open
	}
	s, err := open(f, o)
	if err == nil {
		var stats perf.LoopStats
		stats, err = runSession(f, s, func(seq int, _ time.Duration) bool { return seq >= s.blockLen }, nil)
		if err == nil && stats.Failed > 0 {
			err = stats.FirstErr
		}
	}
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return f, time.Since(t0), nil
}

func ms(seconds float64) float64 { return seconds * 1e3 }

// latencyMS summarizes one class's latencies in milliseconds.
func latencyMS(s perf.LoopStats, class string) perf.Summary {
	lat := make([]float64, len(s.Latency[class]))
	for i, v := range s.Latency[class] {
		lat[i] = ms(v)
	}
	return perf.Summarize(lat)
}

// sqlMetrics are sql_mix's end-to-end metrics: statements and rows per
// second over all connections, and the median latency of each gated class.
func sqlMetrics(r *result, s perf.LoopStats) {
	r.Metrics["stmt_per_s"] = s.OpsPerSecond()
	r.Metrics["rows_per_s"] = s.RowsPerSecond()
	for _, class := range []string{"point", "filter", "groupby", "join", "insert"} {
		sum := latencyMS(s, class)
		r.Samples[class+"_ms"] = sum
		if class != "filter" {
			r.Metrics[class+"_p50_ms"] = sum.Median
		}
	}
}

// jobMetrics are a job workload's: rows ÷ job wall for each iteration, the
// median reported.
func jobMetrics(r *result, s perf.LoopStats) {
	c := s.Clients[0]
	rows := float64(c.Rows) / float64(c.Ops)
	var per []float64
	for _, lat := range s.Latency["job"] {
		per = append(per, rows/lat)
	}
	r.Samples["rows_per_s"] = perf.Summarize(per)
	r.Samples["job_ms"] = latencyMS(s, "job")
	r.Metrics["rows_per_s"] = r.Samples["rows_per_s"].Median
}

// primaryMetric extracts w's primary end-to-end metric from a window.
func primaryMetric(w *workloadDef, s perf.LoopStats) float64 {
	r := &result{Metrics: map[string]float64{}, Samples: map[string]perf.Summary{}}
	w.metrics(r, s)
	return r.Metrics[w.primary]
}

// settle collects the garbage of whatever ran before a window — earlier
// set-ups, the warm-up — so every window starts from the same heap: the live
// data of one fabric. Without it the collector's pacing, and with it the
// window's throughput, depends on how much the previous phase left behind.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// measure is the untraced run: set up setupRepeats times, keep the last
// fabric, drive the workload for seconds, verify, report end-to-end metrics.
func measure(w *workloadDef, seed uint64, seconds float64) (*result, error) {
	o := newOracle(seed)
	r := &result{Workload: w.name, Seed: seed, Seconds: seconds,
		Metrics: map[string]float64{}, Samples: map[string]perf.Summary{}}
	var f *fabric
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			f.Close()
		}
		var d time.Duration
		var err error
		if f, d, err = setUp(w, o, seed); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer f.Close()
	r.Metrics["setup_s"] = perf.Median(setups)
	r.Samples["setup_s"] = perf.Summarize(setups)

	settle()
	stats, err := runWindow(f, w, o, time.Duration(seconds*float64(time.Second)), nil)
	if err != nil {
		return nil, err
	}
	r.count(stats)
	w.metrics(r, stats)
	return r, nil
}

// trace is the traced run. One set-up; the window is split in two halves on
// the same fabric, the first untraced and the second with the benchmark's
// tracer attached, so the overhead of tracing is measured inside the run;
// then the workload's direct layer probes.
func trace(w *workloadDef, seed uint64, seconds float64) (*result, error) {
	o := newOracle(seed)
	r := &result{Workload: w.name, Seed: seed, Seconds: seconds, Metrics: map[string]float64{}}
	for _, d := range perLayer {
		r.Metrics[d.name] = 0
	}
	f, _, err := setUp(w, o, seed)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	half := time.Duration(seconds / 2 * float64(time.Second))

	settle()
	plain, err := runWindow(f, w, o, half, nil)
	if err != nil {
		return nil, err
	}
	r.count(plain)

	tr := perf.NewTracer()
	f.setTracer(tr)
	log := perf.NewSpanLog(tr.Collector(), f.cl.Obs())
	settle()
	before := takeCounters(f)
	traced, err := runWindow(f, w, o, half, log)
	after := takeCounters(f)
	f.setTracer(nil)
	if err != nil {
		return nil, err
	}
	r.count(traced)

	spans, lost := log.Spans()
	if lost > 0 {
		fmt.Fprintf(os.Stderr, "fabricperf: %d spans were overwritten before they were read; layer times are low by that share\n", lost)
	}
	var stmts int
	r.Layers, stmts = spanMetrics(r.Metrics, spans)
	counterMetrics(r.Metrics, before, after, traced, stmts, w)
	if p, t := primaryMetric(w, plain), primaryMetric(w, traced); p > 0 {
		r.Metrics["obs.trace_overhead_frac"] = 1 - t/p
	}
	for _, p := range w.probes {
		if err := p(f, o, w, r.Metrics); err != nil {
			return nil, fmt.Errorf("layer probe: %w", err)
		}
	}
	if err := writeChromeTrace(w.name, spans); err != nil {
		return nil, err
	}
	return r, nil
}

// writeChromeTrace exports the last spans of the traced window through the
// existing Chrome trace-event exporter.
func writeChromeTrace(workload string, spans []obs.Span) error {
	const keep = 20000
	if len(spans) > keep {
		spans = spans[len(spans)-keep:]
	}
	col := obs.NewCollectorCap(len(spans) + 1)
	for _, s := range spans {
		col.SpanEnd(s)
	}
	out, err := os.Create(filepath.Join(scratchDir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	if err := col.WriteChromeTrace(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// counters is a snapshot of what the system and the runtime count.
type counters struct {
	obs map[string]int64
	dc  int64 // the data collector's footprint on disk, in bytes
	mem runtime.MemStats
}

func takeCounters(f *fabric) counters {
	c := counters{obs: f.cl.Obs().Counters()}
	if spool := f.cl.DataCollector(); spool != nil {
		for _, s := range spool.Stats() {
			c.dc += s.Bytes
		}
	}
	runtime.ReadMemStats(&c.mem)
	return c
}
