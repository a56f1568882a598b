package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTheDriver keeps BENCHMARK.json, which the harness
// reads, and the metric and workload tables here, which produce the numbers,
// from drifting apart.
func TestBenchmarkJSONMatchesTheDriver(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the driver measures %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the driver %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	better := map[bool]string{true: "higher", false: "lower"}
	check := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		var want []metricDef
		for _, d := range defs {
			if d.contract || !bounded {
				want = append(want, d)
			}
		}
		if len(listed) != len(want) {
			t.Fatalf("%s: %d metrics listed, %d produced", kind, len(listed), len(want))
		}
		for i, m := range listed {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != better[d.higher] {
				t.Errorf("%s %d: listed %+v, produced %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.bound) {
				t.Errorf("%s %s: bound %v, the driver gates at %v", kind, m.Name, m.Bound, d.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
