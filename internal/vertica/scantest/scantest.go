// Package scantest is the seeded fixture the columnar-result-path suites
// share: internal/vertica checks the in-process result against its test
// oracle, internal/server checks the TCP result against the in-process one,
// both over this table and these statements.
package scantest

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

// Rows is how many rows Build inserts.
const Rows = 1200

// Build creates table ct through exec and leaves four ROS containers per
// segment behind, one per INSERT, with committed deletes across the first
// three. grp arrives in long runs (the shape a persisted container stores
// run-length encoded); val, name and ok carry NULLs.
func Build(seed int64, exec func(sql string)) {
	rng := rand.New(rand.NewSource(seed))
	exec("CREATE TABLE ct (id INTEGER, grp INTEGER, val FLOAT, name VARCHAR, ok BOOLEAN) SEGMENTED BY HASH(id)")
	names := []string{"alpha", "beta", "gamma", ""}
	insert := func(lo, hi int) {
		var vals []string
		for i := lo; i < hi; i++ {
			val, name, ok := fmt.Sprintf("%g", rng.NormFloat64()*50), "'"+names[rng.Intn(len(names))]+"'", "TRUE"
			if rng.Intn(8) == 0 {
				val = "NULL"
			}
			if rng.Intn(8) == 0 {
				name = "NULL"
			}
			switch rng.Intn(5) {
			case 0:
				ok = "NULL"
			case 1, 2:
				ok = "FALSE"
			}
			vals = append(vals, fmt.Sprintf("(%d, %d, %s, %s, %s)", i, i/150, val, name, ok))
		}
		exec("INSERT INTO ct VALUES " + strings.Join(vals, ", "))
	}
	for k := 0; k < 3; k++ {
		insert(k*Rows/4, (k+1)*Rows/4)
	}
	exec("DELETE FROM ct WHERE MOD(id, 11) = 3")
	insert(3*Rows/4, Rows)
}

// Queries returns the scan-shaped statements the suites run: column subsets,
// reordering and duplicates, aliases, predicates on every column kind, the
// hash-range predicates V2S partition queries carry, LIMITs, and zero-row
// schema probes.
func Queries() []string {
	qs := []string{
		"SELECT * FROM ct",
		"SELECT id FROM ct",
		"SELECT name, id, name FROM ct",
		"SELECT ok, val, grp, id FROM ct WHERE grp >= 2 AND grp < 6",
		"SELECT grp AS g, val AS v FROM ct WHERE val IS NULL OR val > 10.5",
		"SELECT * FROM ct WHERE name = 'beta' AND ok IS NOT NULL",
		"SELECT id, *, grp FROM ct WHERE MOD(id, 7) = 0",
		"SELECT * FROM ct LIMIT 0",
		"SELECT val, id FROM ct LIMIT 1",
		"SELECT id, name FROM ct WHERE grp = 3 LIMIT 1",
		"SELECT * FROM ct WHERE grp <> 4 LIMIT 333",
		"SELECT * FROM ct LIMIT 5000",
		"SELECT id FROM ct WHERE id < 0",
		"SELECT name FROM ct WHERE id < 0 LIMIT 0",
	}
	const parts = 4
	for p := uint64(0); p < parts; p++ {
		lo, hi := vhash.RingSize*p/parts, vhash.RingSize*(p+1)/parts
		qs = append(qs,
			fmt.Sprintf("SELECT id, grp, val, name, ok FROM ct WHERE HASH(id) >= %d AND HASH(id) < %d", lo, hi),
			fmt.Sprintf("SELECT val, id FROM ct WHERE HASH(id) >= %d AND HASH(id) < %d AND (grp < 5)", lo, hi))
	}
	return qs
}

// Diff compares two result sets cell by cell, value kinds included (NaN
// equals NaN, -0 differs from +0, INTEGER 1 differs from FLOAT 1), in row
// order, schemas too. It returns "" when they are equal, else the first
// difference.
func Diff(gotSchema types.Schema, got []types.Row, wantSchema types.Schema, want []types.Row) string {
	if !gotSchema.Equal(wantSchema) {
		return fmt.Sprintf("schema %v, want %v", gotSchema, wantSchema)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for i, w := range want {
		if len(got[i]) != len(w) {
			return fmt.Sprintf("row %d: %d cells, want %d", i, len(got[i]), len(w))
		}
		for j := range w {
			g := got[i][j]
			if g.T != w[j].T || g.Null != w[j].Null || g.I != w[j].I || g.S != w[j].S || g.B != w[j].B ||
				math.Float64bits(g.F) != math.Float64bits(w[j].F) {
				return fmt.Sprintf("row %d col %d: %#v, want %#v", i, j, g, w[j])
			}
		}
	}
	return ""
}
