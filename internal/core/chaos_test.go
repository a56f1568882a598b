package core

import (
	"fmt"
	"strings"
	"testing"

	"vsfabric/internal/client"
	"vsfabric/internal/resilience"
	"vsfabric/internal/spark"
	"vsfabric/internal/vertica"
)

// chaosHarness is a harness whose connector pool runs through a
// ChaosConnector, for database-side fault injection.
type chaosHarness struct {
	*harness
	chaos *resilience.ChaosConnector
}

func newChaosHarness(t *testing.T, vNodes, sNodes, maxTaskFailures int, cfg vertica.Config) *chaosHarness {
	t.Helper()
	cfg.Nodes = vNodes
	cl, err := vertica.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := spark.NewContext(spark.Conf{
		NumExecutors:     sNodes,
		CoresPerExecutor: 4,
		MaxTaskFailures:  maxTaskFailures,
	})
	chaos := resilience.NewChaos(client.InProc(cl))
	src := NewDefaultSource(chaos)
	src.Register()
	h := &harness{cluster: cl, sc: sc, src: src, host: cl.Node(0).Addr}
	return &chaosHarness{harness: h, chaos: chaos}
}

// fastRetry keeps the resilient layer's real backoffs tiny so chaos tests
// stay fast; synchronization still comes only from job completion.
func fastRetry(opts map[string]string) map[string]string {
	opts["retry_attempts"] = "5"
	opts["retry_backoff_ms"] = "1"
	return opts
}

// TestV2SNodeDownBuddyFailover kills a node mid-scan — after the task's
// session is established — during a V2S read of a KSAFE 1 table. The
// resilient pool must fail the task's query over to the next node, where the
// dead node's buddy projection serves its hash range, and the job must
// return complete, duplicate-free results.
func TestV2SNodeDownBuddyFailover(t *testing.T) {
	h := newChaosHarness(t, 4, 4, 6, vertica.Config{})
	h.sql(t, "CREATE TABLE kt (id INTEGER, val FLOAT) SEGMENTED BY HASH(id) KSAFE 1")
	var vals []string
	wantSum := 0.0
	for i := 0; i < 1000; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d.5)", i, i))
		wantSum += float64(i) + 0.5
	}
	h.sql(t, "INSERT INTO kt VALUES "+strings.Join(vals, ", "))

	victim := h.cluster.Node(2)
	// The first partition scan that reaches node 2 kills it mid-session.
	h.chaos.KillNodeOnStatement(victim.Addr, "AT EPOCH", victim, 1)

	df, err := h.sc.Read().Format(DefaultSourceName).Options(fastRetry(loadOpts(h.harness, "kt", 8))).Load()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatalf("V2S with node down should fail over to the buddy: %v", err)
	}
	if !victim.Down() {
		t.Fatal("chaos rule never fired — the scenario did not run")
	}
	if len(rows) != 1000 {
		t.Fatalf("got %d rows, want 1000", len(rows))
	}
	seen := make(map[int64]bool, len(rows))
	sum := 0.0
	for _, r := range rows {
		if seen[r[0].I] {
			t.Fatalf("duplicate id %d after failover", r[0].I)
		}
		seen[r[0].I] = true
		sum += r[1].F
	}
	if sum != wantSum {
		t.Fatalf("sum = %v, want %v", sum, wantSum)
	}
	kills := 0
	for _, e := range h.chaos.Log() {
		if strings.HasPrefix(e, "kill-node") {
			kills++
		}
	}
	if kills != 1 {
		t.Errorf("chaos log = %v, want exactly one kill-node event", h.chaos.Log())
	}
}

// TestV2SNodeDownNoKSafetyFails is the control: without buddy projections the
// dead node's segment is unrecoverable and the job must fail with a permanent
// (non-retryable) engine error rather than spin.
func TestV2SNodeDownNoKSafetyFails(t *testing.T) {
	h := newChaosHarness(t, 4, 4, 6, vertica.Config{})
	h.seedTable(t, "nk", 200)
	victim := h.cluster.Node(2)
	h.chaos.KillNodeOnStatement(victim.Addr, "AT EPOCH", victim, 1)
	df, err := h.sc.Read().Format(DefaultSourceName).Options(fastRetry(loadOpts(h.harness, "nk", 8))).Load()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.Collect(); err == nil {
		t.Fatal("scan of a KSAFE 0 table with a dead node must fail")
	} else if !strings.Contains(err.Error(), "k-safety exhausted") {
		t.Fatalf("err = %v, want the engine's k-safety exhausted error as root cause", err)
	}
}

// TestS2VSurvivesConnectionChaos is the acceptance scenario: two task
// connections are severed mid-COPY and the driver's connection is dropped at
// a phase boundary; the save must still complete exactly-once.
func TestS2VSurvivesConnectionChaos(t *testing.T) {
	h := newChaosHarness(t, 4, 4, 6, vertica.Config{})
	const n = 2000
	df := testDF(h.harness, n, 8)
	wantSum := 0.0
	for i := 0; i < n; i++ {
		wantSum += float64(i) + 0.25
	}

	// Any two task COPY streams die after 256 bytes...
	h.chaos.SeverCopyAfter("", 256, 2)
	// ...and the driver's session is severed at the job's final phase
	// boundary, right before it reads the committed status back.
	h.chaos.DropOnStatement("", "SELECT status, failed_rows_percent", 1)

	err := df.Write().Format(DefaultSourceName).
		Options(fastRetry(loadOpts(h.harness, "chaos_target", 8))).
		Mode(spark.SaveOverwrite).Save()
	if err != nil {
		t.Fatalf("S2V should survive the chaos script: %v", err)
	}
	if got := len(h.chaos.Log()); got != 3 {
		t.Fatalf("chaos log = %v, want all 3 faults injected", h.chaos.Log())
	}
	if got := h.count(t, "chaos_target"); got != n {
		t.Fatalf("count = %d, want %d (exactly-once violated)", got, n)
	}
	if got := h.sumCol(t, "chaos_target", "val"); got != wantSum {
		t.Fatalf("sum = %v, want %v (exactly-once violated)", got, wantSum)
	}
	// Every session must have been released despite the carnage.
	for i := 0; i < h.cluster.NumNodes(); i++ {
		if open := h.cluster.OpenSessions(i); open != 0 {
			t.Errorf("node %d leaks %d sessions", i, open)
		}
	}
}

// TestS2VSurvivesLostResults: the ambiguous-outcome drop — a statement runs,
// then its connection dies before the result arrives — on the protocol's
// guarded statements. Whether the lost statement is a COMMIT, one of the
// conditional UPDATEs, a BEGIN or one of setup's INSERTs, and whoever sent it
// (the driver or a task), an 8-partition save must complete exactly-once.
func TestS2VSurvivesLostResults(t *testing.T) {
	for _, c := range []struct {
		match string
		times int
	}{{"COMMIT", 1}, {"COMMIT", 3}, {"COMMIT", 8}, {"UPDATE", 2}, {"BEGIN", 2}, {"INSERT INTO", 2}} {
		t.Run(fmt.Sprintf("%s_x%d", c.match, c.times), func(t *testing.T) {
			h := newChaosHarness(t, 4, 4, 6, vertica.Config{})
			const n = 2000
			df := testDF(h.harness, n, 8)
			wantSum := 0.0
			for i := 0; i < n; i++ {
				wantSum += float64(i) + 0.25
			}
			h.chaos.DropAfterStatement("", c.match, c.times)
			err := df.Write().Format(DefaultSourceName).
				Options(fastRetry(loadOpts(h.harness, "lost_target", 8))).
				Mode(spark.SaveOverwrite).Save()
			if err != nil {
				t.Fatalf("S2V should survive %d lost %s results: %v", c.times, c.match, err)
			}
			if got := len(h.chaos.Log()); got != c.times {
				t.Fatalf("chaos log = %v, want %d drops", h.chaos.Log(), c.times)
			}
			if got := h.count(t, "lost_target"); got != n {
				t.Fatalf("count = %d, want %d (exactly-once violated)", got, n)
			}
			if got := h.sumCol(t, "lost_target", "val"); got != wantSum {
				t.Fatalf("sum = %v, want %v (exactly-once violated)", got, wantSum)
			}
		})
	}
}

// TestS2VDriverConnRefusedAtSetup exercises the resilient driver connection
// from the very first statement: the driver's initial connects are refused
// and must fail over / back off until one lands.
func TestS2VDriverConnRefusedAtSetup(t *testing.T) {
	h := newChaosHarness(t, 4, 4, 6, vertica.Config{})
	df := testDF(h.harness, 500, 4)
	h.chaos.RefuseConnect(h.host, 3)
	err := df.Write().Format(DefaultSourceName).
		Options(fastRetry(loadOpts(h.harness, "refused_target", 4))).
		Mode(spark.SaveOverwrite).Save()
	if err != nil {
		t.Fatalf("driver should retry refused connects: %v", err)
	}
	if got := h.count(t, "refused_target"); got != 500 {
		t.Fatalf("count = %d, want 500", got)
	}
}

// TestS2VSessionLimitFailover drives a task into MAX-CLIENT-SESSIONS on its
// assigned node: one of node 0's two session slots is pinned by an outside
// client and the S2V driver's own connection takes the second, so the task
// assigned to node 0 is deterministically rejected with ErrSessionLimit.
// Spark-level task retries are disabled (MaxTaskFailures: 1), so only the
// typed sentinel's transient classification plus the resilient pool's host
// failover can save the job.
func TestS2VSessionLimitFailover(t *testing.T) {
	h := newChaosHarness(t, 4, 4, 1, vertica.Config{MaxClientSessions: 2})
	pinned, err := h.cluster.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Close()

	df := testDF(h.harness, 400, 4)
	wantSum := 0.0
	for i := 0; i < 400; i++ {
		wantSum += float64(i) + 0.25
	}
	err = df.Write().Format(DefaultSourceName).
		Options(fastRetry(loadOpts(h.harness, "sess_target", 4))).
		Mode(spark.SaveOverwrite).Save()
	if err != nil {
		t.Fatalf("session-limit rejections should be retryable: %v", err)
	}
	if got := h.count(t, "sess_target"); got != 400 {
		t.Fatalf("count = %d, want 400", got)
	}
	if got := h.sumCol(t, "sess_target", "val"); got != wantSum {
		t.Fatalf("sum = %v, want %v", got, wantSum)
	}
}
