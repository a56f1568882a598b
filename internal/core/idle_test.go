package core

import (
	"fmt"
	"testing"

	"vsfabric/internal/resilience"
	"vsfabric/internal/spark"
	"vsfabric/internal/types"
)

// collectTable loads table through the registered source and collects it,
// failing unless it returns want rows.
func collectTable(t *testing.T, h *harness, table string, parts, want int) []types.Row {
	t.Helper()
	df, err := h.sc.Read().Format(DefaultSourceName).Options(loadOpts(h, table, parts)).Load()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil || len(rows) != want {
		t.Fatalf("collected %d rows of %s (%v), want %d", len(rows), table, err, want)
	}
	return rows
}

// openSessions returns every node's open session count.
func openSessions(h *harness) []int {
	out := make([]int, h.cluster.NumNodes())
	for i := range out {
		out[i] = h.cluster.OpenSessions(i)
	}
	return out
}

// TestV2SSourceCloseLeavesNoSessions: a V2S job leaves its sessions idle in
// the source, and DefaultSource.Close closes every one. A relation read after
// Close still works and keeps nothing open.
func TestV2SSourceCloseLeavesNoSessions(t *testing.T) {
	h := newHarness(t, 3, 2, nil)
	h.seedTable(t, "sc", 500)
	collectTable(t, h, "sc", 4, 500)
	idle := 0
	for _, n := range openSessions(h) {
		idle += n
	}
	if idle == 0 {
		t.Fatal("no session stayed idle after the job")
	}
	h.src.Close()
	for round := 0; round < 2; round++ {
		for i, n := range openSessions(h) {
			if n != 0 {
				t.Fatalf("node %d holds %d sessions after the source closed (%d jobs since)", i, n, round)
			}
		}
		collectTable(t, h, "sc", 4, 500)
	}
}

// TestV2SRemovedNodeIdleSessionsClose: ALTER CLUSTER REMOVE NODE leaves the
// source holding idle sessions to the removed node; the next job plans on
// the new ring and closes them, and reads every row from the survivors.
func TestV2SRemovedNodeIdleSessionsClose(t *testing.T) {
	h := newHarness(t, 3, 2, nil)
	h.seedTable(t, "rm", 600)
	collectTable(t, h, "rm", 6, 600)
	removed := h.cluster.Node(2)
	if n := h.src.idle.Idle(removed.Addr); n == 0 {
		t.Fatalf("no session to %s stayed idle after the job", removed.Addr)
	}
	h.sql(t, "ALTER CLUSTER REMOVE NODE 2")
	collectTable(t, h, "rm", 6, 600)
	if n := h.src.idle.Idle(removed.Addr); n != 0 {
		t.Errorf("%d sessions to removed %s still idle", n, removed.Addr)
	}
	if n := h.cluster.OpenSessions(2); n != 0 {
		t.Errorf("removed node holds %d sessions", n)
	}
	h.src.Close()
}

// TestV2SConcurrentCollectsKeepIdleBound: 8 collects at once hold more
// sessions to a host than the idle set keeps; once they finish, every host
// keeps at most resilience.MaxIdlePerHost, and every session not kept is
// closed.
func TestV2SConcurrentCollectsKeepIdleBound(t *testing.T) {
	h := newHarness(t, 2, 8, nil)
	h.seedTable(t, "cc", 800)
	const collectors = 8
	errs := make(chan error, collectors)
	for i := 0; i < collectors; i++ {
		go func() {
			df, err := h.sc.Read().Format(DefaultSourceName).Options(loadOpts(h, "cc", 16)).Load()
			if err == nil {
				var rows []types.Row
				if rows, err = df.Collect(); err == nil && len(rows) != 800 {
					err = fmt.Errorf("collected %d rows, want 800", len(rows))
				}
			}
			errs <- err
		}()
	}
	for i := 0; i < collectors; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	for i, open := range openSessions(h) {
		idle := h.src.idle.Idle(h.cluster.Node(i).Addr)
		if idle > resilience.MaxIdlePerHost {
			t.Errorf("node %d: %d idle sessions, bound %d", i, idle, resilience.MaxIdlePerHost)
		}
		if open != idle {
			t.Errorf("node %d: %d sessions open, %d of them idle", i, open, idle)
		}
	}
	h.src.Close()
	for i, n := range openSessions(h) {
		if n != 0 {
			t.Errorf("node %d holds %d sessions after the source closed", i, n)
		}
	}
}

// TestV2SIdleSessionsSkipS2V: a save through a source whose V2S sessions are
// idle neither takes nor leaves any: S2V's sessions carry transactions and
// staging tables, and it dials and closes each of its own.
func TestV2SIdleSessionsSkipS2V(t *testing.T) {
	h := newHarness(t, 3, 2, nil)
	h.seedTable(t, "sk", 300)
	collectTable(t, h, "sk", 4, 300)
	before := openSessions(h)
	if err := saveDF(t, h, testDF(h, 200, 4), spark.SaveOverwrite, "sk_out", 4, nil); err != nil {
		t.Fatal(err)
	}
	after := openSessions(h)
	for i := range before {
		if after[i] != before[i] {
			t.Errorf("node %d: %d sessions open before the save, %d after", i, before[i], after[i])
		}
	}
	h.src.Close()
}
