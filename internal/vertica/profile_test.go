package vertica

import (
	"fmt"
	"strings"
	"testing"
)

// TestProfileSelect pins the PROFILE result-set contract: one row per
// operator in execution order, "total" last, with row counts that reconcile
// against the query's actual result.
func TestProfileSelect(t *testing.T) {
	c := testCluster(t, 4)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE pt (id INTEGER, grp INTEGER, val FLOAT) SEGMENTED BY HASH(id)")
	var vals []string
	for i := 0; i < 400; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, %d.5)", i, i%10, i))
	}
	s.MustExecute("INSERT INTO pt VALUES " + strings.Join(vals, ", "))

	const q = "SELECT val FROM pt WHERE grp = 3"
	plain := s.MustExecute(q)
	if len(plain.Rows) != 40 {
		t.Fatalf("plain query returned %d rows, want 40", len(plain.Rows))
	}

	res := s.MustExecute("PROFILE " + q)
	wantCols := []string{"operator", "rows_in", "rows_out", "vectorized_rows", "residual_rows", "duration_us", "detail"}
	if got := len(res.Schema.Cols); got != len(wantCols) {
		t.Fatalf("profile schema has %d cols, want %d", got, len(wantCols))
	}
	for i, w := range wantCols {
		if res.Schema.Cols[i].Name != w {
			t.Errorf("profile col %d = %q, want %q", i, res.Schema.Cols[i].Name, w)
		}
	}
	if len(res.Rows) < 3 {
		t.Fatalf("profile has %d operator rows, want at least scan, project, total", len(res.Rows))
	}

	ops := make(map[string]int) // operator name → row index
	for i, r := range res.Rows {
		ops[r[0].S] = i
	}
	scanIdx, ok := ops["scan pt"]
	if !ok {
		t.Fatalf("profile is missing the scan operator: %+v", res.Rows)
	}
	scan := res.Rows[scanIdx]
	if scan[1].I != 400 {
		t.Errorf("scan rows_in = %d, want 400", scan[1].I)
	}
	if scan[2].I != 40 {
		t.Errorf("scan rows_out = %d, want 40 (predicate pushed to scan)", scan[2].I)
	}
	if scan[3].I == 0 {
		t.Error("scan vectorized_rows = 0, want the typed kernel to have run")
	}

	last := res.Rows[len(res.Rows)-1]
	if last[0].S != "total" {
		t.Fatalf("last profile row = %q, want total", last[0].S)
	}
	if last[2].I != 40 {
		t.Errorf("total rows_out = %d, want 40", last[2].I)
	}
	if !strings.HasPrefix(last[6].S, "epoch ") {
		t.Errorf("total detail = %q, want the query epoch", last[6].S)
	}

	// PROFILE of an aggregate runs the same pushdown machinery.
	res = s.MustExecute("PROFILE SELECT COUNT(*) FROM pt")
	last = res.Rows[len(res.Rows)-1]
	if last[0].S != "total" || last[2].I != 1 {
		t.Fatalf("PROFILE COUNT(*) total row = %+v, want 1 result row", last)
	}

	// The profiled query must not perturb the data: the plain query still
	// equals the oracle afterwards, and PROFILE's total reconciles with it on
	// an unsegmented table too.
	sameResults(t, q, s.MustExecute(q), oracleSelect(t, s, q))
	s.MustExecute("CREATE TABLE pu (id INTEGER, val FLOAT)")
	s.MustExecute("INSERT INTO pu VALUES (1, 1.5), (2, 2.5)")
	const qu = "SELECT val FROM pu WHERE id = 1"
	res = s.MustExecute("PROFILE " + qu)
	want := oracleSelect(t, s, qu)
	if last := res.Rows[len(res.Rows)-1]; last[0].S != "total" || last[2].I != int64(len(want.Rows)) || last[2].I != 1 {
		t.Fatalf("unsegmented PROFILE total = %+v, oracle has %d rows, want 1", last, len(want.Rows))
	}
}
