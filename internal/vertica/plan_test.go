package vertica

import (
	"fmt"
	"strings"
	"testing"

	"vsfabric/internal/types"
	"vsfabric/internal/vertica/scantest"
)

// TestPlanConsistency states once what "one plan, four readers" means: for
// every statement shape, EXPLAIN and PROFILE list the same operators in the
// same order, the v_monitor.query_plans row a run writes carries the join
// order and pushdown EXPLAIN printed and the containers PROFILE saw pruned,
// PROFILE's total reconciles with the oracle, and EXPLAIN records nothing.
func TestPlanConsistency(t *testing.T) {
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	buildScanFixture(t, s)
	s.MustExecute("CREATE TABLE dg (grp INTEGER, label VARCHAR) SEGMENTED BY HASH(grp)")
	s.MustExecute("CREATE TABLE dn (name VARCHAR, w INTEGER)")
	var vals []string
	for g := 0; g < 8; g++ {
		vals = append(vals, fmt.Sprintf("(%d, 'g%d')", g, g))
	}
	s.MustExecute("INSERT INTO dg VALUES " + strings.Join(vals, ", "))
	s.MustExecute("INSERT INTO dn VALUES ('alpha', 1), ('beta', 2), ('gamma', 3)")
	s.MustExecute("CREATE VIEW cv AS SELECT grp, label FROM dg WHERE grp < 6")

	queries := append(scantest.Queries(),
		"SELECT COUNT(*) FROM ct WHERE grp >= 2",
		"SELECT grp, COUNT(*), SUM(val) FROM ct WHERE id >= 300 GROUP BY grp", // vectorized
		"SELECT grp, SUM(val + 1.0) FROM ct GROUP BY grp",                     // row fallback
		"SELECT id, val FROM ct WHERE grp = 2 ORDER BY id DESC LIMIT 9",
		"SELECT ct.id, dg.label, dn.w FROM ct JOIN dg ON ct.grp = dg.grp JOIN dn ON ct.name = dn.name WHERE ct.id < 400",
		"SELECT ct.id, cv.label FROM ct JOIN cv ON ct.grp = cv.grp",
		"SELECT table_name FROM v_catalog.tables WHERE is_segmented = TRUE",
		"SELECT 1 + 2",
	)
	planRows := func() []types.Row {
		return s.MustExecute("SELECT query, join_order, pushdown, containers_pruned FROM v_monitor.query_plans").Rows
	}
	for _, q := range queries {
		before := len(planRows())
		explain := s.MustExecute("EXPLAIN " + q)
		if n := len(planRows()); n != before {
			t.Fatalf("%s: EXPLAIN wrote %d query_plans rows", q, n-before)
		}
		// What EXPLAIN printed: operators, join order, pushdown, base scans.
		var wantOps, order []string
		pushdown, baseScan := "", false
		for _, r := range explain.Rows {
			op, target, detail := r[1].S, r[2].S, r[6].S
			switch op {
			case "event":
				continue
			case "scan":
				op += " " + target
				baseScan = baseScan || strings.Contains(detail, "segments")
				if len(order) == 0 {
					order = append(order, target)
				}
				if strings.Contains(detail, "count pushdown") {
					pushdown = "count"
				}
			case "join":
				order = append(order, target)
			case "group-by":
				if strings.HasPrefix(detail, "vectorized hash aggregation") {
					pushdown = "group-by"
				}
			}
			wantOps = append(wantOps, op)
		}
		joinOrder := ""
		if len(order) > 1 {
			joinOrder = strings.Join(order, " JOIN ")
		}

		s.MustExecute(q)
		plans := planRows()
		if !baseScan {
			if len(plans) != before {
				t.Fatalf("%s: a query that scans no base table wrote a query_plans row", q)
			}
		} else if len(plans) != before+1 {
			t.Fatalf("%s: run wrote %d query_plans rows, want 1", q, len(plans)-before)
		}

		profile := s.MustExecute("PROFILE " + q)
		var gotOps []string
		var pruned int64
		for _, r := range profile.Rows {
			name := r[0].S
			if name == "total" || strings.HasPrefix(name, "event: ") {
				continue
			}
			gotOps = append(gotOps, name)
			if _, rest, ok := strings.Cut(r[6].S, "zone maps pruned "); ok && strings.HasPrefix(name, "scan ") {
				var n, of int64
				if _, err := fmt.Sscanf(rest, "%d/%d", &n, &of); err != nil {
					t.Fatalf("%s: scan detail %q: %v", q, r[6].S, err)
				}
				pruned += n
			}
		}
		if got, want := strings.Join(gotOps, ", "), strings.Join(wantOps, ", "); got != want {
			t.Errorf("%s:\n PROFILE operators %s\n EXPLAIN operators %s", q, got, want)
		}
		total := profile.Rows[len(profile.Rows)-1]
		if want := oracleSelect(t, s, q); total[0].S != "total" || total[2].I != int64(len(want.Rows)) {
			t.Errorf("%s: PROFILE total = %v, oracle has %d rows", q, total, len(want.Rows))
		}
		if baseScan {
			rec := plans[len(plans)-1]
			if rec[0].S != q || rec[1].S != joinOrder || rec[2].S != pushdown || rec[3].I != pruned {
				t.Errorf("%s: query_plans row %v, want join_order %q, pushdown %q, containers_pruned %d",
					q, rec, joinOrder, pushdown, pruned)
			}
		}
	}
}
