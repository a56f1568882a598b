package main

import (
	"testing"
	"time"

	"vsfabric/internal/perf"
)

// TestWorkloadsRunAndVerify brings the fabric up once per workload, runs a
// fraction of a second of it, and requires what the real runs require: no
// operation fails its correctness gate and every end-to-end metric the
// workload owns comes out positive.
func TestWorkloadsRunAndVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 300k rows per workload")
	}
	o := newOracle(7)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			f, _, err := setUp(w, o, 7)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			stats, err := runWindow(f, w, o, 300*time.Millisecond, nil)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Failed != 0 {
				t.Fatalf("%d of %d operations failed: %v", stats.Failed, stats.Attempted, stats.FirstErr)
			}
			r := &result{Metrics: map[string]float64{}, Samples: map[string]perf.Summary{}}
			w.metrics(r, stats)
			for name, v := range r.Metrics {
				if !(v > 0) {
					t.Errorf("%s = %v", name, v)
				}
			}
			if _, ok := r.Metrics[w.primary]; !ok {
				t.Errorf("primary metric %s missing", w.primary)
			}
		})
	}
}
