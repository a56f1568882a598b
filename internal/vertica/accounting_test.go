package vertica

import (
	"context"
	"fmt"
	"testing"

	"vsfabric/internal/spark"
)

// TestUntracedAccountingAllocs: the simulator's accounting is paid by traced
// statements only. An in-process SELECT under an untraced Spark task's
// context (a peer name, no task record) allocates exactly what it allocates
// under a bare context — no accounting maps, no weighed cell — and an
// untraced INSERT into a 2-node table builds no route map and weighs no
// vector. Counts, not a clock.
func TestUntracedAccountingAllocs(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE acct (id INTEGER, v FLOAT, s VARCHAR) SEGMENTED BY HASH(id)")
	for i := 0; i < 200; i += 4 {
		s.MustExecute(fmt.Sprintf("INSERT INTO acct VALUES (%d, 0.5, 'a'), (%d, NULL, 'bcd'), (%d, 1.5, NULL), (%d, 2.5, 'e')", i, i+1, i+2, i+3))
	}
	task := (&spark.TaskContext{ExecNode: "s0"}).Context()

	const q = "SELECT id, v, s FROM acct WHERE id < 150"
	selectAllocs := func(ctx context.Context) float64 {
		return testing.AllocsPerRun(50, func() {
			if res, err := s.ExecuteColumnar(ctx, q); err != nil || res.NumRows() != 150 {
				t.Fatalf("select: %v", err)
			}
		})
	}
	// Measured: 104 under both, where the task's recorder used to add 10.
	if bare, untraced := selectAllocs(context.Background()), selectAllocs(task); untraced != bare {
		t.Errorf("a SELECT allocates %.0f times under an untraced task, %.0f under a bare context", untraced, bare)
	}

	// The three rows all hash to node 1: one remote target. Measured: 94
	// allocations (96 under -race); 101 (104) when every INSERT built a route
	// map and weighed the vectors it sent.
	const maxInsertAllocs = 96
	s.MustExecute("CREATE TABLE acct_ins (id INTEGER, v FLOAT, s VARCHAR) SEGMENTED BY HASH(id)")
	insert := testing.AllocsPerRun(50, func() {
		if _, err := s.ExecuteColumnar(task, "INSERT INTO acct_ins VALUES (1, 0.5, 'a'), (-20, NULL, 'bcd'), (3, 1.5, NULL)"); err != nil {
			t.Fatal(err)
		}
	})
	if insert > maxInsertAllocs {
		t.Errorf("an untraced 2-node INSERT allocates %.0f times, bound %d", insert, maxInsertAllocs)
	}
}
