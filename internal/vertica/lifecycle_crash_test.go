package vertica

import (
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"vsfabric/internal/wal"
)

func membershipWorkload() []crashStep {
	return []crashStep{
		execStep("create", "CREATE TABLE t (id INTEGER, v INTEGER) SEGMENTED BY HASH(id) KSAFE 1"),
		execStep("insert1", "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)"),
		execStep("add-node", "ALTER CLUSTER ADD NODE"),
		execStep("insert2", "INSERT INTO t VALUES (10, 100), (11, 110)"),
		execStep("remove-node", "ALTER CLUSTER REMOVE NODE 1"),
		execStep("insert3", "INSERT INTO t VALUES (20, 200)"),
	}
}

// verifyMembershipRecovery reopens the directory and checks the recovered
// rows equal the acknowledged prefix. Epochs are not compared: a crash
// mid-ALTER can leave committed per-table rebalance transactions (pure
// movement, no row changes) that the model run never executed. It also
// checks reopen converged every table onto the logged membership ring.
func verifyMembershipRecovery(t *testing.T, label, dir string, steps []crashStep, acks []bool) {
	t.Helper()
	want, _ := modelState(t, steps, acks)
	c, err := NewCluster(Config{Nodes: 2, DataDir: dir})
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	defer c.Close()
	s, err := c.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := dumpTable(s, "t"); !sameRows(got, want) {
		t.Fatalf("%s (acks %v):\nrecovered %v\n expected %v", label, acks, got, want)
	}
	ringsConverged(t, c)
	if want != nil {
		if _, err := s.Execute("INSERT INTO t VALUES (900, 9)"); err != nil {
			t.Fatalf("%s: post-recovery insert failed: %v", label, err)
		}
	}
}

// TestMembershipCrashSweep kills the cluster at EVERY WAL record boundary of
// a workload that grows and shrinks the cluster mid-stream: the membership
// record, each per-table rebalance record, and the commits around them. At
// every crash point reopen must converge — no acknowledged row lost, no
// segment duplicated, every table on the logged membership ring.
func TestMembershipCrashSweep(t *testing.T) {
	steps := membershipWorkload()
	appends := countWorkloadAppends(t, steps)
	if appends < 8 {
		t.Fatalf("workload too small to sweep: %d appends", appends)
	}
	for n := 0; n < appends; n++ {
		dir := t.TempDir()
		c := durableCluster(t, dir)
		c.curWAL().FailAfterRecords(n)
		acks := runSteps(t, c, steps)
		_ = c.Close()
		verifyMembershipRecovery(t, fmt.Sprintf("crash@%d", n), dir, steps, acks)
	}
}

// recoveryWorkload drives a down-window with writes during the outage and a
// synchronous heal: create, insert, node 1 dies, insert (lands on buddies,
// marks the dead node's stores stale), node 1 heals (recovery transaction),
// insert. Returns which inserts were acknowledged.
func runRecoveryWorkload(t *testing.T, c *Cluster) []bool {
	t.Helper()
	s, err := c.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	exec := func(sql string) bool {
		_, err := s.Execute(sql)
		return err == nil
	}
	acks := make([]bool, 4)
	acks[0] = exec("CREATE TABLE t (id INTEGER, v INTEGER) SEGMENTED BY HASH(id) KSAFE 1")
	acks[1] = exec("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
	c.Node(1).SetDown(true)
	acks[2] = exec("INSERT INTO t VALUES (10, 100), (11, 110)")
	// Healing runs the recovery state machine (RECOVERING -> rebuild stale
	// stores -> recovery transaction commit -> UP). With a torn WAL the
	// commit fails and the node reverts to DOWN — never half-recovered.
	c.Node(1).SetDown(false)
	acks[3] = exec("INSERT INTO t VALUES (20, 200)")
	return acks
}

// TestRecoveryCrashSweep crashes the WAL at every record boundary of the
// recovery workload — including inside the heal's own recovery transaction —
// and checks reopen always lands on exactly the acknowledged rows, with the
// cluster writable and nothing stale.
func TestRecoveryCrashSweep(t *testing.T) {
	// Count the clean run's appends.
	cleanDir := t.TempDir()
	c := durableCluster(t, cleanDir)
	acks := runRecoveryWorkload(t, c)
	for i, ok := range acks {
		if !ok {
			t.Fatalf("clean run: step %d failed", i)
		}
	}
	if c.Node(1).State() != NodeUp {
		t.Fatal("clean run: heal did not return the node to UP")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := wal.ReadAll(filepath.Join(cleanDir, "wal-1.log"))
	if err != nil {
		t.Fatal(err)
	}
	appends := len(recs) - 1

	inserts := [][]string{
		nil,
		{"1|10", "2|20", "3|30"},
		{"10|100", "11|110"},
		{"20|200"},
	}
	for n := 0; n < appends; n++ {
		dir := t.TempDir()
		c := durableCluster(t, dir)
		c.curWAL().FailAfterRecords(n)
		acks := runRecoveryWorkload(t, c)
		_ = c.Close()

		var want []string
		for i, ok := range acks {
			if ok {
				want = append(want, inserts[i]...)
			}
		}
		if !acks[0] {
			want = nil // table never existed
		}
		c2, err := NewCluster(Config{Nodes: 2, DataDir: dir})
		if err != nil {
			t.Fatalf("crash@%d: recovery failed: %v", n, err)
		}
		s2, err := c2.Connect(0)
		if err != nil {
			t.Fatal(err)
		}
		got := dumpTable(s2, "t")
		if !sameRows(got, sortedCopyStrings(want)) {
			t.Fatalf("crash@%d (acks %v):\nrecovered %v\n expected %v", n, acks, got, want)
		}
		noStaleStores(t, c2)
		if want != nil {
			if _, err := s2.Execute("INSERT INTO t VALUES (900, 9)"); err != nil {
				t.Fatalf("crash@%d: post-recovery insert failed: %v", n, err)
			}
		}
		s2.Close()
		c2.Close()
	}
}

func sortedCopyStrings(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}
