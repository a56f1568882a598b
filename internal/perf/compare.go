package perf

import (
	"fmt"
	"sort"
)

// MetricDef names one gated end-to-end metric: which direction is better,
// and the share of the baseline by which it may get worse before a
// comparison counts it as a regression.
type MetricDef struct {
	Name         string
	HigherBetter bool
	Bound        float64
}

// Values holds one run set's metric values: workload name → metric name →
// value.
type Values map[string]map[string]float64

// Verdict is the comparison of one metric on one workload.
type Verdict struct {
	Workload string
	Metric   string
	Base     float64
	Cur      float64
	// Worse is how much worse cur is than base, as a share of base, in the
	// metric's own direction: positive means a slowdown for a
	// lower-is-better metric and a drop for a higher-is-better one.
	Worse     float64
	Bound     float64
	Regressed bool
	// Missing is set when the workload or metric is absent from cur; a
	// missing gated metric is a regression.
	Missing bool
}

func (v Verdict) String() string {
	if v.Missing {
		return fmt.Sprintf("%-13s %-15s base %.6g, missing from this run", v.Workload, v.Metric, v.Base)
	}
	tag := "ok"
	if v.Regressed {
		tag = "REGRESSED"
	}
	return fmt.Sprintf("%-13s %-15s base %.6g  now %.6g  %+.1f%% worse (bound %.0f%%)  %s",
		v.Workload, v.Metric, v.Base, v.Cur, 100*v.Worse, 100*v.Bound, tag)
}

// Compare judges cur against base for every (workload, metric) pair that
// base holds and defs defines, in a stable order. Metrics base lacks are not
// judged: a baseline taken before a metric existed cannot gate it.
func Compare(defs []MetricDef, base, cur Values) []Verdict {
	var out []Verdict
	workloads := make([]string, 0, len(base))
	for w := range base {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	for _, w := range workloads {
		for _, d := range defs {
			b, ok := base[w][d.Name]
			if !ok {
				continue
			}
			v := Verdict{Workload: w, Metric: d.Name, Base: b, Bound: d.Bound}
			c, ok := cur[w][d.Name]
			if !ok {
				v.Missing, v.Regressed = true, true
				out = append(out, v)
				continue
			}
			v.Cur = c
			if b != 0 {
				v.Worse = (c - b) / b
				if d.HigherBetter {
					v.Worse = -v.Worse
				}
			}
			v.Regressed = v.Worse > d.Bound
			out = append(out, v)
		}
	}
	return out
}

// Regressed reports whether any verdict is a regression.
func Regressed(vs []Verdict) bool {
	for _, v := range vs {
		if v.Regressed {
			return true
		}
	}
	return false
}
