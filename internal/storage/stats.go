package storage

import (
	"fmt"
	"math"

	"vsfabric/internal/types"
)

// ColStats is the zone map for one column of one ROS container: the null
// count plus the min/max over non-null values. Containers are immutable, so
// the stats are computed once — at container construction (a write or a
// rebalance; recovery adopts a replica's containers with theirs) or on load
// from the persisted container file. The planner uses them for cardinality estimates; the scan path uses
// them to prune whole containers whose [Min, Max] range a predicate excludes
// ("C-Store 7 Years Later" attributes much of Vertica's scan performance to
// exactly this metadata).
type ColStats struct {
	NullCount int
	// HasMinMax is false when every value is NULL (Min/Max undefined).
	HasMinMax bool
	Min, Max  types.Value
}

// ComputeColStats scans a column once and returns its zone map, boxing no
// value but the two bounds. A NaN in a FLOAT column widens its bounds to
// [-Inf, +Inf]: the kernels call NaN equal to every literal, so no bound may
// exclude it.
func ComputeColStats(col Column) ColStats {
	switch c := Densify(col).(type) {
	case *Int64Column:
		return int64Stats(c.Vals, c.Nulls)
	case *Float64Column:
		var st ColStats
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, v := range c.Vals {
			if c.Nulls != nil && c.Nulls[i] {
				st.NullCount++
				continue
			}
			st.HasMinMax = true
			if v != v {
				lo, hi = math.Inf(-1), math.Inf(1)
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if st.HasMinMax {
			st.Min = types.FloatValue(lo)
			st.Max = types.FloatValue(hi)
		}
		return st
	case *StringColumn:
		var st ColStats
		var lo, hi string
		for i, v := range c.Vals {
			if c.Nulls != nil && c.Nulls[i] {
				st.NullCount++
				continue
			}
			if !st.HasMinMax {
				st.HasMinMax = true
				lo, hi = v, v
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if st.HasMinMax {
			st.Min = types.StringValue(lo)
			st.Max = types.StringValue(hi)
		}
		return st
	case *BoolColumn:
		var st ColStats
		seenF, seenT := false, false
		for i, v := range c.Vals {
			if c.Nulls != nil && c.Nulls[i] {
				st.NullCount++
				continue
			}
			if v {
				seenT = true
			} else {
				seenF = true
			}
		}
		if seenF || seenT {
			st.HasMinMax = true
			st.Min = types.BoolValue(!seenF) // false < true
			st.Max = types.BoolValue(seenT)
		}
		return st
	}
	panic(fmt.Sprintf("storage: %T is not a dense vector", col))
}

func int64Stats(vals []int64, nulls []bool) ColStats {
	var st ColStats
	var lo, hi int64
	for i, v := range vals {
		if nulls != nil && nulls[i] {
			st.NullCount++
			continue
		}
		if !st.HasMinMax {
			st.HasMinMax = true
			lo, hi = v, v
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if st.HasMinMax {
		st.Min = types.IntValue(lo)
		st.Max = types.IntValue(hi)
	}
	return st
}

// ComputeStats returns the zone maps for a full column set.
func ComputeStats(cols []Column) []ColStats {
	out := make([]ColStats, len(cols))
	for i, c := range cols {
		out[i] = ComputeColStats(c)
	}
	return out
}
