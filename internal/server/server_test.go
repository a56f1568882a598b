package server

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"vsfabric/internal/client"
	"vsfabric/internal/core"
	"vsfabric/internal/sim"
	"vsfabric/internal/spark"
	"vsfabric/internal/types"
	"vsfabric/internal/vertica"
)

// startCluster brings up a cluster with one TCP server per node and returns
// the connector mapping node addresses to TCP endpoints.
func startCluster(t *testing.T, nodes int) (*vertica.Cluster, *DialConnector) {
	t.Helper()
	return startClusterCfg(t, vertica.Config{Nodes: nodes})
}

func startClusterCfg(t *testing.T, cfg vertica.Config) (*vertica.Cluster, *DialConnector) {
	t.Helper()
	cl, err := vertica.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := &DialConnector{Endpoints: map[string]string{}}
	for i := 0; i < cfg.Nodes; i++ {
		srv := New(cl, i)
		ep, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		d.Endpoints[cl.Node(i).Addr] = ep
	}
	return cl, d
}

func TestQueryOverTCP(t *testing.T) {
	cl, d := startCluster(t, 2)
	conn, err := d.Connect(bg, cl.Node(0).Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Execute(bg, "CREATE TABLE t (id INTEGER, name VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Execute(bg, "INSERT INTO t VALUES (1, 'a'), (2, 'b')"); err != nil {
		t.Fatal(err)
	}
	res, err := conn.Execute(bg, "SELECT id, name FROM t WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].S != "b" {
		t.Errorf("rows = %v", res.Rows)
	}
	if _, err := conn.Execute(bg, "SELECT * FROM missing"); err == nil {
		t.Error("remote error should surface")
	}
	// The session survives an error and stays usable.
	if _, err := conn.Execute(bg, "SELECT COUNT(*) FROM t"); err != nil {
		t.Errorf("session should survive an error: %v", err)
	}
}

func TestTransactionsOverTCP(t *testing.T) {
	cl, d := startCluster(t, 2)
	a, err := d.Connect(bg, cl.Node(0).Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := d.Connect(bg, cl.Node(1).Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	mustExec := func(c *TCPConn, sql string) *vertica.Result {
		t.Helper()
		res, err := c.Execute(bg, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	mustExec(a.(*TCPConn), "CREATE TABLE t (id INTEGER)")
	_ = mustExec
	aa := a.(*TCPConn)
	bb := b.(*TCPConn)
	mustExec(aa, "BEGIN")
	mustExec(aa, "INSERT INTO t VALUES (1)")
	if res := mustExec(bb, "SELECT COUNT(*) FROM t"); res.Rows[0][0].I != 0 {
		t.Error("uncommitted insert visible over second TCP session")
	}
	mustExec(aa, "COMMIT")
	if res := mustExec(bb, "SELECT COUNT(*) FROM t"); res.Rows[0][0].I != 1 {
		t.Error("committed insert not visible")
	}
}

func TestCopyOverTCP(t *testing.T) {
	cl, d := startCluster(t, 2)
	conn, err := d.Connect(bg, cl.Node(1).Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Execute(bg, "CREATE TABLE t (id INTEGER, v FLOAT)"); err != nil {
		t.Fatal(err)
	}
	data := "1,0.5\n2,1.5\n3,2.5\n"
	res, err := conn.CopyFrom(bg, "COPY t FROM STDIN FORMAT CSV DIRECT", strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if res.Copy == nil || res.Copy.Loaded != 3 {
		t.Errorf("copy = %+v", res.Copy)
	}
	sum, err := conn.Execute(bg, "SELECT SUM(v) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Rows[0][0].F != 4.5 {
		t.Errorf("sum = %v", sum.Rows[0][0])
	}
}

// TestServerCloseEndsLiveSessions: Close returns promptly while clients still
// hold connections, an idle one and one inside an open transaction, and ends
// their sessions as if the clients had hung up: the transaction is not
// committed, no session stays open, and the closed server refuses to listen
// again.
func TestServerCloseEndsLiveSessions(t *testing.T) {
	cl := vertica.MustNewCluster(1)
	srv := New(cl, 0)
	ep, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	idle, err := DialContext(bg, ep)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, err := idle.Execute(bg, "CREATE TABLE sc (n INTEGER)"); err != nil {
		t.Fatal(err)
	}
	inTxn, err := DialContext(bg, ep)
	if err != nil {
		t.Fatal(err)
	}
	defer inTxn.Close()
	for _, sql := range []string{"BEGIN", "INSERT INTO sc VALUES (1)"} {
		if _, err := inTxn.Execute(bg, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	if n := cl.OpenSessions(0); n != 2 {
		t.Fatalf("%d open sessions before Close, want 2", n)
	}

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close still blocked 5s after it was called, with two clients connected")
	}
	if n := cl.OpenSessions(0); n != 0 {
		t.Fatalf("%d sessions still open after Close, want 0", n)
	}
	if _, err := inTxn.Execute(bg, "COMMIT"); err == nil {
		t.Fatal("COMMIT succeeded on a connection the closed server ended")
	}
	local, err := cl.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	if n := local.MustExecute("SELECT COUNT(*) FROM sc").Rows[0][0].I; n != 0 {
		t.Fatalf("the open transaction's row is visible after Close: %d rows, want 0", n)
	}
	if _, err := srv.Listen("127.0.0.1:0"); !errors.Is(err, errServerClosed) {
		t.Fatalf("Listen after Close = %v, want errServerClosed", err)
	}
}

// The connector itself runs over the wire protocol unchanged: V2S + S2V
// against TCP-served nodes.
func TestConnectorOverTCP(t *testing.T) {
	cl, d := startCluster(t, 4)
	sc := spark.NewContext(spark.Conf{NumExecutors: 2, CoresPerExecutor: 4})
	src := core.NewDefaultSource(d)
	spark.RegisterSource("vertica-tcp", src)

	schema := types.NewSchema(
		types.Column{Name: "id", T: types.Int64},
		types.Column{Name: "val", T: types.Float64},
	)
	rows := make([]types.Row, 300)
	for i := range rows {
		rows[i] = types.Row{types.IntValue(int64(i)), types.FloatValue(float64(i))}
	}
	df := spark.CreateDataFrame(sc, schema, rows, 4)
	opts := map[string]string{"host": cl.Node(0).Addr, "table": "remote_t", "numPartitions": "6"}
	if err := df.Write().Format("vertica-tcp").Options(opts).Mode(spark.SaveOverwrite).Save(); err != nil {
		t.Fatal(err)
	}
	back, err := sc.Read().Format("vertica-tcp").Options(opts).Load()
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 300 {
		t.Fatalf("round trip over TCP: %d rows, want 300", len(got))
	}
	seen := map[int64]bool{}
	for _, r := range got {
		if seen[r[0].I] {
			t.Fatalf("duplicate id %d", r[0].I)
		}
		seen[r[0].I] = true
	}
}

// TestSimAccountingStaysInProcess pins where the simulator's cost events go.
// A task record in the statement context (sim.WithTask) is their only
// channel, and only in-process callers attach one: over TCP the statements of
// every kind leave the node's collector without a "sim" count (it used to
// receive, count and drop one event per statement, weighing every selected
// cell of a SELECT to build it), while the same statements in-process under
// a task record record what they always did.
func TestSimAccountingStaysInProcess(t *testing.T) {
	cl, d := startCluster(t, 2)
	run := func(ctx context.Context, conn client.Conn, table string) {
		t.Helper()
		defer conn.Close()
		for _, sql := range []string{
			"CREATE TABLE " + table + " (id INTEGER, v FLOAT, s VARCHAR) SEGMENTED BY HASH(id)",
			"INSERT INTO " + table + " VALUES (1, 0.5, 'a'), (-20, NULL, 'bcd')",
			"BEGIN",
			"INSERT INTO " + table + " VALUES (3, 1.5, NULL)",
			"COMMIT",
		} {
			if _, err := conn.Execute(ctx, sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
		if _, err := conn.CopyFrom(ctx, "COPY "+table+" FROM STDIN FORMAT CSV DIRECT", strings.NewReader("4,2.5,x\n5,3.5,y\n")); err != nil {
			t.Fatal(err)
		}
		res, err := conn.Execute(ctx, "SELECT id, v, s FROM "+table+" WHERE id < 5")
		if err != nil || len(res.Rows) != 4 {
			t.Fatalf("select: %d rows, %v", len(res.Rows), err)
		}
	}

	wire, err := d.Connect(bg, cl.Node(0).Addr)
	if err != nil {
		t.Fatal(err)
	}
	run(bg, wire, "tw")
	if n := cl.Obs().Counter("sim"); n != 0 {
		t.Errorf("collector counted %d sim events from TCP statements, want 0", n)
	}
	mon, _ := cl.Connect(0)
	defer mon.Close()
	if res := mon.MustExecute("SELECT * FROM v_monitor.counters WHERE counter_name = 'sim'"); len(res.Rows) != 0 {
		t.Errorf("v_monitor.counters has a sim row: %v", res.Rows)
	}

	rec := sim.NewTrace().Task("t", "exec-0")
	local, err := client.InProc(cl).Connect(bg, cl.Node(0).Addr)
	if err != nil {
		t.Fatal(err)
	}
	run(sim.WithTask(bg, rec), local, "tl")
	fixed := func(k sim.FixedKind) sim.Event { return sim.Event{Type: sim.FixedEv, FixedKind: k} }
	load := func(rows, wire, insert, routed float64) sim.Event {
		return sim.Event{Type: sim.LoadFlowEv, VNode: "v0", ResultRows: rows, WireBytes: wire, InsertRows: insert,
			EncodeKind: sim.CPUCSVFormat, ParseKind: sim.CPUCSVParse, Route: map[[2]string]float64{{"v0", "v1"}: routed}}
	}
	want := []sim.Event{
		fixed(sim.FixedTableDDL),
		fixed(sim.FixedQuery), load(2, 108, 2, 44),
		fixed(sim.FixedQuery), load(1, 52, 1, 20),
		fixed(sim.FixedCommit),
		fixed(sim.FixedQuery), load(2, 16, 0, 42),
		fixed(sim.FixedQuery),
		// Four rows of the text protocol's cell sizes: an INTEGER is 4 + its
		// digits and sign, a FLOAT 23, a string 4 + its length, a NULL 4.
		{Type: sim.QueryFlowEv, VNode: "v0", ResultRows: 4, ResultBytes: 116,
			ScanRows: map[string]float64{"v0": 0, "v1": 5}, Shuffle: map[[2]string]float64{{"v1", "v0"}: 85}},
	}
	if got := rec.Events(); !reflect.DeepEqual(got, want) {
		t.Errorf("in-process events:\n got %+v\nwant %+v", got, want)
	}
}
