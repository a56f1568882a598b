package core

import (
	"context"
	"sync"
	"testing"

	"vsfabric/internal/client"
	"vsfabric/internal/spark"
	"vsfabric/internal/types"
	"vsfabric/internal/vertica"
)

// rangeDF builds a DataFrame of (id, val) rows for ids in [lo, hi).
func rangeDF(h *harness, lo, hi, parts int) *spark.DataFrame {
	schema := types.NewSchema(
		types.Column{Name: "id", T: types.Int64},
		types.Column{Name: "val", T: types.Float64},
	)
	rows := make([]types.Row, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rows = append(rows, types.Row{types.IntValue(int64(i)), types.FloatValue(float64(i) + 0.25)})
	}
	return spark.CreateDataFrame(h.sc, schema, rows, parts)
}

func query(t *testing.T, c *vertica.Cluster, sql string) *vertica.Result {
	t.Helper()
	s, err := c.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Execute(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// TestElasticClusterChaosAcceptance is the acceptance scenario for elastic
// membership under chaos: a KSAFE 1 cluster takes live connector COPY
// traffic, loses a node, grows by one node while the dead node's segments
// must be sourced from buddies, keeps loading during the outage, heals the
// dead node at a deterministic operation count, and then serves a complete,
// duplicate-free V2S read. Run under -race by `make rebalance-test`.
func TestElasticClusterChaosAcceptance(t *testing.T) {
	h := newChaosHarness(t, 3, 4, 8, vertica.Config{})
	h.sql(t, "CREATE TABLE elastic (id INTEGER, val FLOAT) SEGMENTED BY HASH(id) KSAFE 1")

	save := func(lo, hi int) error {
		return rangeDF(h.harness, lo, hi, 4).Write().Format(DefaultSourceName).
			Options(fastRetry(loadOpts(h.harness, "elastic", 4))).
			Mode(spark.SaveAppend).Save()
	}
	load := func() ([]types.Row, error) {
		df, err := h.sc.Read().Format(DefaultSourceName).
			Options(fastRetry(loadOpts(h.harness, "elastic", 8))).Load()
		if err != nil {
			return nil, err
		}
		return df.Collect()
	}

	// Phase 1: live COPY traffic on the healthy cluster.
	if err := save(0, 600); err != nil {
		t.Fatalf("baseline save: %v", err)
	}

	// Phase 2: a node dies. Every acknowledged commit must survive on the
	// buddy replicas.
	victim := h.cluster.Node(2)
	victim.SetDown(true)
	if got := h.count(t, "elastic"); got != 600 {
		t.Fatalf("acknowledged commits lost with node down: count = %d, want 600", got)
	}

	// Phase 3: grow the cluster while the victim is dead AND a live S2V load
	// is running. The rebalance must source the dead node's segments from
	// buddies, wait out in-flight COPY transactions (lock fairness keeps it
	// from starving), and the load must commit exactly-once.
	saveErr := make(chan error, 1)
	go func() { saveErr <- save(600, 800) }()
	h.sql(t, "ALTER CLUSTER ADD NODE")
	if err := <-saveErr; err != nil {
		t.Fatalf("S2V during rebalance: %v", err)
	}
	if got := h.count(t, "elastic"); got != 800 {
		t.Fatalf("count after rebalance under load = %d, want 800", got)
	}
	segs := query(t, h.cluster, "SELECT node_address FROM v_catalog.segments WHERE table_name = 'elastic'")
	if len(segs.Rows) != 4 {
		t.Fatalf("table spans %d segments after add-node, want 4", len(segs.Rows))
	}

	// Phase 4: heal the victim at a deterministic operation count — the next
	// connector operation (the V2S driver's connect) revives it, running
	// synchronous recovery before the op proceeds. No sleeps, no races.
	h.chaos.RecoverNodeAtOp(victim, h.chaos.Ops()+1)
	rows, err := load()
	if err != nil {
		t.Fatalf("V2S after heal: %v", err)
	}
	if victim.State() != vertica.NodeUp {
		t.Fatalf("victim state = %v after scheduled heal, want UP", victim.State())
	}
	if victim.RecoveryEpoch() == 0 {
		t.Fatal("victim has no recovery epoch")
	}

	// Zero duplicate, zero missing rows at the final epoch.
	if len(rows) != 800 {
		t.Fatalf("V2S returned %d rows, want 800", len(rows))
	}
	seen := make(map[int64]bool, len(rows))
	for _, r := range rows {
		if seen[r[0].I] {
			t.Fatalf("duplicate id %d in V2S result", r[0].I)
		}
		seen[r[0].I] = true
	}
	for i := int64(0); i < 800; i++ {
		if !seen[i] {
			t.Fatalf("id %d missing from V2S result", i)
		}
	}

	// The monitoring surface reports the whole story: four UP nodes, the
	// add-node moves, and the recovery.
	states := query(t, h.cluster, "SELECT node_state FROM v_monitor.node_states")
	if len(states.Rows) != 4 {
		t.Fatalf("node_states reports %d nodes, want 4", len(states.Rows))
	}
	for _, r := range states.Rows {
		if r[0].S != "UP" {
			t.Fatalf("node state %q after heal, want UP", r[0].S)
		}
	}
	ops := query(t, h.cluster, "SELECT operation_type, status FROM v_monitor.rebalance_operations")
	var addDone, recoverDone int
	for _, r := range ops.Rows {
		if r[1].S != "complete" {
			continue
		}
		switch r[0].S {
		case "add_node":
			addDone++
		case "recovery":
			recoverDone++
		}
	}
	if addDone == 0 || recoverDone == 0 {
		t.Fatalf("rebalance_operations: %d add_node, %d recovery complete entries; want both > 0\n%v",
			addDone, recoverDone, ops.Rows)
	}

	// Phase 5: the post-chaos cluster is fully functional end to end.
	if err := save(800, 900); err != nil {
		t.Fatalf("post-chaos save: %v", err)
	}
	rows, err = load()
	if err != nil {
		t.Fatalf("post-chaos load: %v", err)
	}
	if len(rows) != 900 {
		t.Fatalf("final V2S count = %d, want 900", len(rows))
	}
	wantSum := 0.0
	for i := 0; i < 900; i++ {
		wantSum += float64(i) + 0.25
	}
	if got := h.sumCol(t, "elastic", "val"); got != wantSum {
		t.Fatalf("final sum = %v, want %v", got, wantSum)
	}
	for i := 0; i < h.cluster.NumNodes(); i++ {
		if h.cluster.Node(i).State() != vertica.NodeRemoved {
			if open := h.cluster.OpenSessions(i); open != 0 {
				t.Errorf("node %d leaks %d sessions", i, open)
			}
		}
	}
}

// TestV2SReplansAcrossMembershipChange: a relation created before an ALTER
// CLUSTER must re-discover the layout at scan time and read the table
// completely from the new ring — including from addresses that did not exist
// when the relation was created.
func TestV2SReplansAcrossMembershipChange(t *testing.T) {
	h := newChaosHarness(t, 2, 2, 4, vertica.Config{})
	h.sql(t, "CREATE TABLE mv (id INTEGER, val FLOAT) SEGMENTED BY HASH(id) KSAFE 1")
	if err := rangeDF(h.harness, 0, 400, 4).Write().Format(DefaultSourceName).
		Options(fastRetry(loadOpts(h.harness, "mv", 4))).
		Mode(spark.SaveAppend).Save(); err != nil {
		t.Fatal(err)
	}

	// Relation created against the 2-node layout.
	df, err := h.sc.Read().Format(DefaultSourceName).
		Options(fastRetry(loadOpts(h.harness, "mv", 6))).Load()
	if err != nil {
		t.Fatal(err)
	}
	h.sql(t, "ALTER CLUSTER ADD NODE")
	if err := rangeDF(h.harness, 400, 500, 2).Write().Format(DefaultSourceName).
		Options(fastRetry(loadOpts(h.harness, "mv", 2))).
		Mode(spark.SaveAppend).Save(); err != nil {
		t.Fatal(err)
	}

	rows, err := df.Collect()
	if err != nil {
		t.Fatalf("stale relation must re-plan, not fail: %v", err)
	}
	if len(rows) != 500 {
		t.Fatalf("re-planned scan returned %d rows, want 500", len(rows))
	}
	seen := make(map[int64]bool, len(rows))
	for _, r := range rows {
		if seen[r[0].I] {
			t.Fatalf("duplicate id %d", r[0].I)
		}
		seen[r[0].I] = true
	}
}

// countingConnector counts the connections the connector opens, per address.
type countingConnector struct {
	inner client.Connector
	mu    sync.Mutex
	dials map[string]int
}

func (c *countingConnector) Connect(ctx context.Context, addr string) (client.Conn, error) {
	c.mu.Lock()
	c.dials[addr]++
	c.mu.Unlock()
	return c.inner.Connect(ctx, addr)
}

func (c *countingConnector) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, d := range c.dials {
		n += d
	}
	return n
}

// TestV2SPlansOnOneConnection: a V2S plan refreshes the layout and pins the
// epoch on one driver connection, so a 4-partition load costs six dials (one
// to create the relation, one to plan, four partition reads) — and CountRows
// plans through the same step, so a count after ALTER CLUSTER ADD NODE runs
// against the refreshed ring, new node included.
func TestV2SPlansOnOneConnection(t *testing.T) {
	h := newHarness(t, 2, 2, nil)
	h.seedTable(t, "pj", 600)
	cc := &countingConnector{inner: client.InProc(h.cluster), dials: map[string]int{}}
	opts := V2SOptions{ConnOptions: ConnOptions{Host: h.host, Table: "pj", NumPartitions: 4}}
	rel, err := newV2SRelation(h.sc, cc, opts)
	if err != nil {
		t.Fatal(err)
	}
	rdd, err := rel.BuildScan(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := rdd.Collect()
	if err != nil || len(rows) != 600 {
		t.Fatalf("collected %d rows: %v", len(rows), err)
	}
	if got := cc.total(); got != 6 {
		t.Fatalf("relation + 4-partition BuildScan + Collect dialed %d times (%v), want 6", got, cc.dials)
	}

	h.sql(t, "ALTER CLUSTER ADD NODE")
	added := h.cluster.Node(2).Addr
	before := cc.dials[added]
	n, err := rel.CountRows(nil)
	if err != nil || n != 600 {
		t.Fatalf("CountRows after ADD NODE = %d: %v", n, err)
	}
	if cc.dials[added] == before {
		t.Fatalf("CountRows planned against the stale 2-node ring: no count ran on %s (%v)", added, cc.dials)
	}
}
