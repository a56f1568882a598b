// Command fabricperf is the real-bytes end-to-end benchmark of the fabric:
// V2S loads, S2V saves and plain SQL against a durable 2-node cluster over
// loopback TCP, with wall time attributed to the layers it crosses. See
// README.md beside this file.
//
//	fabricperf -all -seed 1 [-out file.json]   every workload, measured then traced
//	fabricperf -selfcheck                      the measured set twice; they must agree within the bounds
//	fabricperf -compare bench/baseline/fabricperf.json
//	fabricperf -workload v2s_full -seed 1 -seconds 15 -trace 0
//
// The last form is the benchmark contract's (BENCHMARK.json): one workload,
// one JSON object as the final line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"vsfabric/internal/perf"
)

// runSeconds is the measured window; it is BENCHMARK.json's run_seconds.
// ISSUE.md's 30 s measured + 10 s traced were cut to fit the contract's total
// time budget: a measured run is one 15 s window, and a traced run splits
// the same 15 s into an untraced and a traced half.
const runSeconds = 15

func main() {
	var (
		all       = flag.Bool("all", false, "run every workload, measured then traced, and print every metric")
		selfcheck = flag.Bool("selfcheck", false, "run the measured set twice and fail if a gated metric differs by more than its bound")
		compare   = flag.String("compare", "", "run the measured set and fail if a gated metric is worse than this baseline `file` by more than its bound")
		out       = flag.String("out", "", "with -all: also write the results as JSON to this `file`")
		name      = flag.String("workload", "", "run this one workload and print the contract's JSON result line")
		seed      = flag.Uint64("seed", 1, "seed of the data generator and the statement mix")
		seconds   = flag.Float64("seconds", runSeconds, "measured window; the benchmark's own value is the default and the only one baselines are valid for")
		traceOn   = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	)
	flag.Parse()
	var err error
	switch {
	case *name != "":
		err = runContract(*name, *seed, *seconds, *traceOn != 0)
	case *all:
		err = runAll(*seed, *seconds, *out)
	case *selfcheck:
		err = runSelfcheck(*seed, *seconds)
	case *compare != "":
		err = runCompare(*compare, *seed, *seconds)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fabricperf:", err)
		os.Exit(1)
	}
}

// contractLine is the benchmark contract's result object.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runContract runs one workload once. The report goes to standard error; the
// last line of standard output is the result object.
func runContract(name string, seed uint64, seconds float64, traced bool) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	defs, run := endToEnd, measure
	if traced {
		defs, run = perLayer, trace
	}
	r, err := run(w, seed, seconds)
	if err != nil {
		return err
	}
	printResult(os.Stderr, r, defs)
	line := contractLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]contractMetric{}}
	for _, d := range defs {
		if !traced && !d.contract {
			continue
		}
		v, ok := r.Metrics[d.name]
		if !ok {
			return fmt.Errorf("%s did not produce %s", name, d.name)
		}
		line.Metrics[d.name] = contractMetric{Value: v, Unit: d.unit}
	}
	return json.NewEncoder(os.Stdout).Encode(line)
}

// document is what -all writes and -compare reads: bench/baseline's format.
type document struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Config      config      `json:"config"`
	Seed        uint64      `json:"seed"`
	Measured    []*result   `json:"measured"`
	Traced      []*result   `json:"traced,omitempty"`
}

// config records the fixed inputs a baseline was taken under.
type config struct {
	RunSeconds     float64 `json:"run_seconds"`
	D1Rows         int     `json:"d1_rows"`
	D1Cols         int     `json:"d1_float_cols"`
	S2VRows        int     `json:"s2v_rows"`
	Nodes          int     `json:"vertica_nodes"`
	Executors      int     `json:"spark_executors"`
	Partitions     int     `json:"num_partitions"`
	SQLConnections int     `json:"sql_connections"`
	WOSMoveoutRows int     `json:"wos_moveout_rows"`
	CacheBytes     int     `json:"container_cache_bytes"`
	Transport      string  `json:"transport"`
	FlushPolicy    string  `json:"flush_policy"`
}

func currentConfig(seconds float64) config {
	return config{
		RunSeconds: seconds, D1Rows: d1Rows, D1Cols: d1Cols, S2VRows: s2vRows,
		Nodes: vNodes, Executors: nproc, Partitions: partitions(), SQLConnections: nproc,
		WOSMoveoutRows: wosMoveoutRows, CacheBytes: containerCacheBytes,
		Transport:   "loopback TCP, wire protocol v2",
		FlushPolicy: "WAL fsync on every commit; DataDir under " + scratchDir + " in the working directory",
	}
}

// measureAll runs every workload's measured run, repeats times back to
// back, and returns one result set per repeat.
func measureAll(seed uint64, seconds float64, repeats int) ([][]*result, error) {
	sets := make([][]*result, repeats)
	for i := range workloads {
		for rep := range sets {
			r, err := measure(&workloads[i], seed, seconds)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", workloads[i].name, err)
			}
			printResult(os.Stdout, r, endToEnd)
			sets[rep] = append(sets[rep], r)
		}
	}
	return sets, nil
}

func runAll(seed uint64, seconds float64, out string) error {
	doc := document{Fingerprint: takeFingerprint(), Config: currentConfig(seconds), Seed: seed}
	sets, err := measureAll(seed, seconds, 1)
	if err != nil {
		return err
	}
	doc.Measured = sets[0]
	for i := range workloads {
		r, err := trace(&workloads[i], seed, seconds)
		if err != nil {
			return fmt.Errorf("%s (traced): %w", workloads[i].name, err)
		}
		printResult(os.Stdout, r, perLayer)
		doc.Traced = append(doc.Traced, r)
	}
	// Tracing overhead, measured run against traced half-window, beside the
	// in-run figure the traced run reports by itself.
	for i, m := range doc.Measured {
		p := workloads[i].primary
		fmt.Printf("%-13s %s: measured %.6g; the traced run's own untraced/traced halves differ by %+.1f%%\n",
			m.Workload, p, m.Metrics[p], 100*doc.Traced[i].Metrics["obs.trace_overhead_frac"])
	}
	if failed(doc.Measured) || failed(doc.Traced) {
		err = fmt.Errorf("operations failed; see failed_frac above")
	}
	if out != "" {
		data, merr := json.MarshalIndent(doc, "", "  ")
		if merr != nil {
			return merr
		}
		if werr := os.WriteFile(out, append(data, '\n'), 0o644); werr != nil {
			return werr
		}
		fmt.Println("wrote", out)
	}
	return err
}

func failed(rs []*result) bool {
	for _, r := range rs {
		if r.Failed > 0 {
			return true
		}
	}
	return false
}

func values(rs []*result) perf.Values {
	v := perf.Values{}
	for _, r := range rs {
		v[r.Workload] = r.Metrics
	}
	return v
}

// judge prints the verdicts and turns any regression, or any failed
// operation in the runs judged, into an error.
func judge(vs []perf.Verdict, runs ...[]*result) error {
	for _, v := range vs {
		fmt.Println(v)
	}
	for _, rs := range runs {
		if failed(rs) {
			return fmt.Errorf("operations failed")
		}
	}
	if perf.Regressed(vs) {
		return fmt.Errorf("gated metrics moved by more than their bounds")
	}
	return nil
}

// runSelfcheck measures every workload twice, the two runs of a workload
// back to back so that as little machine drift as possible falls between
// them, and fails if any gated metric differs by more than its bound in
// either direction.
func runSelfcheck(seed uint64, seconds float64) error {
	sets, err := measureAll(seed, seconds, 2)
	if err != nil {
		return err
	}
	first, second := values(sets[0]), values(sets[1])
	fmt.Println("\nsecond run judged against the first, then the first against the second:")
	return judge(append(perf.Compare(perfDefs(), first, second), perf.Compare(perfDefs(), second, first)...), sets...)
}

func runCompare(path string, seed uint64, seconds float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base document
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if cur := currentConfig(seconds); base.Config != cur {
		return fmt.Errorf("%s was taken under a different configuration:\n  baseline %+v\n  now      %+v", path, base.Config, cur)
	}
	if fp := takeFingerprint(); fp != base.Fingerprint {
		fmt.Printf("warning: baseline machine differs; absolute comparisons mean little\n  baseline %+v\n  now      %+v\n", base.Fingerprint, fp)
	}
	sets, err := measureAll(seed, seconds, 1)
	if err != nil {
		return err
	}
	fmt.Println("\nthis run judged against", path+":")
	return judge(perf.Compare(perfDefs(), values(base.Measured), values(sets[0])), sets[0])
}

// printResult writes one run's metrics by name and unit, its sample
// distributions, and (traced runs) the layer table.
func printResult(w io.Writer, r *result, defs []metricDef) {
	kind := "measured"
	if len(r.Layers) > 0 {
		kind = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s, seed %d, %gs window) ==\n", r.Workload, kind, r.Seed, r.Seconds)
	fmt.Fprintf(w, "  %-28s %d of %d operations failed\n", fmt.Sprintf("failed_frac %.6g", float64(r.Failed)/float64(r.Attempted)), r.Failed, r.Attempted)
	if r.FirstError != "" {
		fmt.Fprintf(w, "  first failure: %s\n", r.FirstError)
	}
	for _, d := range defs {
		if v, ok := r.Metrics[d.name]; ok {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	names := make([]string, 0, len(r.Samples))
	for n := range r.Samples {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := r.Samples[n]
		fmt.Fprintf(w, "  %-12s n=%-6d q1 %.6g  median %.6g  q3 %.6g", n, s.N, s.Q1, s.Median, s.Q3)
		if s.TailP > 0 {
			fmt.Fprintf(w, "  p%g %.6g", 100*s.TailP, s.Tail)
		}
		fmt.Fprintln(w)
	}
	if len(r.Layers) > 0 {
		printLayers(w, r.Layers)
	}
}

// printLayers writes the self-time table by span name, then rolled up by
// module.
func printLayers(w io.Writer, rows []perf.LayerRow) {
	var total time.Duration
	byLayer := map[string]time.Duration{}
	for _, r := range rows {
		total += r.Self
		layer, ok := layerOf[r.Name]
		if !ok {
			layer = r.Name
		}
		byLayer[layer] += r.Self
	}
	if total == 0 {
		return
	}
	fmt.Fprintf(w, "  %-20s %8s %12s %12s %7s\n", "span", "count", "total s", "self s", "self %")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-20s %8d %12.4f %12.4f %6.1f%%\n", r.Name, r.Count, r.Total.Seconds(), r.Self.Seconds(), 100*float64(r.Self)/float64(total))
	}
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return byLayer[layers[i]] > byLayer[layers[j]] })
	var parts []string
	for _, l := range layers {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", l, 100*float64(byLayer[l])/float64(total)))
	}
	fmt.Fprintf(w, "  self time by layer: %s\n", strings.Join(parts, ", "))
}

// fingerprint identifies the machine a baseline was taken on.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Kernel     string `json:"kernel"`
	DataDirFS  string `json:"datadir_fs"`
}

func takeFingerprint() fingerprint {
	fp := fingerprint{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		OSArch: runtime.GOOS + "/" + runtime.GOARCH, Kernel: "unknown", DataDirFS: "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	// The filesystem under the working directory: the longest mount point
	// that prefixes it.
	wd, err := os.Getwd()
	mounts, merr := os.ReadFile("/proc/mounts")
	if err == nil && merr == nil {
		best := ""
		for _, line := range strings.Split(string(mounts), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 {
				continue
			}
			mp := f[1]
			if (wd == mp || strings.HasPrefix(wd, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
				best, fp.DataDirFS = mp, f[2]
			}
		}
	}
	return fp
}
