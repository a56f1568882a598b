package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"vsfabric/internal/avro"
	"vsfabric/internal/client"
	"vsfabric/internal/spark"
	"vsfabric/internal/types"
	"vsfabric/internal/vertica"
)

// harness bundles a cluster, a Spark context, and the registered connector.
type harness struct {
	cluster *vertica.Cluster
	sc      *spark.Context
	src     *DefaultSource
	host    string
}

func newHarness(t *testing.T, vNodes, sNodes int, inj *spark.FailureInjector) *harness {
	t.Helper()
	cl, err := vertica.NewCluster(vertica.Config{Nodes: vNodes})
	if err != nil {
		t.Fatal(err)
	}
	sc := spark.NewContext(spark.Conf{
		NumExecutors:     sNodes,
		CoresPerExecutor: 4,
		MaxTaskFailures:  4,
		Speculation:      inj != nil,
		Injector:         inj,
	})
	src := NewDefaultSource(client.InProc(cl))
	src.Register()
	return &harness{cluster: cl, sc: sc, src: src, host: cl.Node(0).Addr}
}

func (h *harness) sql(t *testing.T, stmts ...string) {
	t.Helper()
	s, err := h.cluster.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, stmt := range stmts {
		if _, err := s.Execute(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
}

func (h *harness) count(t *testing.T, table string) int64 {
	t.Helper()
	s, err := h.cluster.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Execute("SELECT COUNT(*) FROM " + table)
	if err != nil {
		t.Fatalf("count %s: %v", table, err)
	}
	v, _ := res.Value()
	return v.I
}

func (h *harness) sumCol(t *testing.T, table, col string) float64 {
	t.Helper()
	s, err := h.cluster.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Execute(fmt.Sprintf("SELECT SUM(%s) FROM %s", col, table))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Value()
	return v.AsFloat()
}

// seedTable loads n rows (id, val) into a segmented table via SQL.
func (h *harness) seedTable(t *testing.T, table string, n int) {
	t.Helper()
	h.sql(t, fmt.Sprintf("CREATE TABLE %s (id INTEGER, val FLOAT) SEGMENTED BY HASH(id)", table))
	var vals []string
	for i := 0; i < n; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d.25)", i, i))
		if len(vals) == 500 || i == n-1 {
			h.sql(t, fmt.Sprintf("INSERT INTO %s VALUES %s", table, strings.Join(vals, ", ")))
			vals = nil
		}
	}
}

func testDF(h *harness, n, parts int) *spark.DataFrame {
	schema := types.NewSchema(
		types.Column{Name: "id", T: types.Int64},
		types.Column{Name: "val", T: types.Float64},
	)
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.IntValue(int64(i)), types.FloatValue(float64(i) + 0.25)}
	}
	return spark.CreateDataFrame(h.sc, schema, rows, parts)
}

func loadOpts(h *harness, table string, parts int) map[string]string {
	return map[string]string{
		"host": h.host, "table": table, "user": "dbadmin", "password": "",
		"numPartitions": fmt.Sprint(parts),
	}
}

// ---------- V2S ----------

func TestV2SLoadRoundTrip(t *testing.T) {
	h := newHarness(t, 4, 4, nil)
	h.seedTable(t, "d1", 1000)
	for _, parts := range []int{1, 2, 3, 4, 7, 16} {
		df, err := h.sc.Read().Format(DefaultSourceName).Options(loadOpts(h, "d1", parts)).Load()
		if err != nil {
			t.Fatal(err)
		}
		rows, err := df.Collect()
		if err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		if len(rows) != 1000 {
			t.Fatalf("parts=%d: got %d rows, want 1000", parts, len(rows))
		}
		seen := map[int64]bool{}
		var sum float64
		for _, r := range rows {
			if seen[r[0].I] {
				t.Fatalf("parts=%d: duplicate id %d", parts, r[0].I)
			}
			seen[r[0].I] = true
			sum += r[1].F
		}
		want := float64(999*1000/2) + 0.25*1000
		if sum != want {
			t.Errorf("parts=%d: sum %v, want %v (exactly-once violated)", parts, sum, want)
		}
	}
}

// TestV2SFewerPartitionsThanNodes: a partition covering several whole
// segments (Figure 4(a)) concatenates its specs' results in segment order, so
// every numPartitions below the node count reads the rows one partition per
// node reads, in the same order.
func TestV2SFewerPartitionsThanNodes(t *testing.T) {
	h := newHarness(t, 4, 2, nil)
	h.seedTable(t, "d1", 1000)
	collect := func(parts int) []types.Row {
		t.Helper()
		df, err := h.sc.Read().Format(DefaultSourceName).Options(loadOpts(h, "d1", parts)).Load()
		if err != nil {
			t.Fatal(err)
		}
		rows, err := df.Collect()
		if err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		return rows
	}
	want := collect(4)
	if len(want) != 1000 {
		t.Fatalf("parts=4: got %d rows, want 1000", len(want))
	}
	for _, parts := range []int{1, 2, 3} {
		got := collect(parts)
		if len(got) != len(want) {
			t.Fatalf("parts=%d: got %d rows, want %d", parts, len(got), len(want))
		}
		for i := range want {
			if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
				t.Fatalf("parts=%d: row %d = %v, want %v", parts, i, got[i], want[i])
			}
		}
	}
}

func TestV2SProjectionAndFilterPushdown(t *testing.T) {
	h := newHarness(t, 4, 2, nil)
	h.seedTable(t, "d1", 500)
	df, err := h.sc.Read().Format(DefaultSourceName).Options(loadOpts(h, "d1", 8)).Load()
	if err != nil {
		t.Fatal(err)
	}
	sel, err := df.Select("val")
	if err != nil {
		t.Fatal(err)
	}
	filtered := sel.Where(spark.GreaterThanOrEqual{Col: "id", Value: types.IntValue(490)})
	rows, err := filtered.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("filter pushdown returned %d rows, want 10", len(rows))
	}
	if len(rows[0]) != 1 {
		t.Errorf("projection pushdown returned %d cols, want 1", len(rows[0]))
	}
}

func TestV2SCountPushdown(t *testing.T) {
	h := newHarness(t, 4, 2, nil)
	h.seedTable(t, "d1", 300)
	df, err := h.sc.Read().Format(DefaultSourceName).Options(loadOpts(h, "d1", 4)).Load()
	if err != nil {
		t.Fatal(err)
	}
	n, err := df.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 300 {
		t.Errorf("count = %d", n)
	}
	n, err = df.Where(spark.LessThan{Col: "id", Value: types.IntValue(100)}).Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("filtered count = %d", n)
	}
}

// Epoch pinning: rows inserted or deleted after the scan's epoch is pinned
// must not appear, no matter when tasks run or how often they restart.
func TestV2SEpochConsistencyUnderConcurrentWrites(t *testing.T) {
	inj := spark.NewFailureInjector()
	// Every task fails once, so every partition runs twice — the retries
	// happen after the concurrent writes below.
	inj.FailTaskAt(-1, 0, "v2s.task_done", 1000)
	h := newHarness(t, 4, 2, inj)
	h.seedTable(t, "d1", 400)

	df, err := h.sc.Read().Format(DefaultSourceName).Options(loadOpts(h, "d1", 8)).Load()
	if err != nil {
		t.Fatal(err)
	}
	rdd, err := df.RDD() // epoch pinned here
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent modification after pinning, before the job runs.
	h.sql(t, "INSERT INTO d1 VALUES (9999, 1.0)", "DELETE FROM d1 WHERE id < 100")
	rows, err := rdd.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 400 {
		t.Fatalf("got %d rows, want the pinned-epoch 400", len(rows))
	}
	for _, r := range rows {
		if r[0].I == 9999 {
			t.Error("row inserted after epoch pin leaked into the load")
		}
	}
}

func TestV2SUnsegmentedTable(t *testing.T) {
	h := newHarness(t, 3, 2, nil)
	h.sql(t, "CREATE TABLE u (id INTEGER, v FLOAT) UNSEGMENTED ALL NODES")
	var vals []string
	for i := 0; i < 120; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d.5)", i, i))
	}
	h.sql(t, "INSERT INTO u VALUES "+strings.Join(vals, ", "))
	df, err := h.sc.Read().Format(DefaultSourceName).Options(loadOpts(h, "u", 6)).Load()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 120 {
		t.Fatalf("unsegmented load got %d rows, want 120 (synthetic hash ranges)", len(rows))
	}
}

func TestV2SLoadView(t *testing.T) {
	h := newHarness(t, 4, 2, nil)
	h.seedTable(t, "d1", 200)
	// A view with an aggregation — the pushdown §3.1.1 says views enable.
	h.sql(t, "CREATE VIEW bigv AS SELECT id, val FROM d1 WHERE id >= 150")
	df, err := h.sc.Read().Format(DefaultSourceName).Options(loadOpts(h, "bigv", 4)).Load()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 {
		t.Fatalf("view load got %d rows, want 50", len(rows))
	}
	seen := map[int64]bool{}
	for _, r := range rows {
		if seen[r[0].I] {
			t.Fatalf("view load duplicated id %d", r[0].I)
		}
		seen[r[0].I] = true
	}
}

func TestV2STaskFailureRetry(t *testing.T) {
	inj := spark.NewFailureInjector()
	inj.FailTaskAt(2, 0, "v2s.task_start", 1) // task 2's first attempt dies
	h := newHarness(t, 4, 2, inj)
	h.seedTable(t, "d1", 400)
	df, err := h.sc.Read().Format(DefaultSourceName).Options(loadOpts(h, "d1", 8)).Load()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 400 {
		t.Errorf("after retry: %d rows, want 400", len(rows))
	}
	if len(inj.Log()) != 1 {
		t.Errorf("injector fired %d times, want 1", len(inj.Log()))
	}
}

// ---------- S2V ----------

func saveDF(t *testing.T, h *harness, df *spark.DataFrame, mode spark.SaveMode, table string, parts int, extra map[string]string) error {
	t.Helper()
	opts := loadOpts(h, table, parts)
	for k, v := range extra {
		opts[k] = v
	}
	return df.Write().Format(DefaultSourceName).Options(opts).Mode(mode).Save()
}

func TestS2VOverwriteBasic(t *testing.T) {
	h := newHarness(t, 4, 4, nil)
	df := testDF(h, 1000, 8)
	if err := saveDF(t, h, df, spark.SaveOverwrite, "target", 8, nil); err != nil {
		t.Fatal(err)
	}
	if got := h.count(t, "target"); got != 1000 {
		t.Fatalf("target has %d rows, want 1000", got)
	}
	want := float64(999*1000)/2 + 0.25*1000
	if got := h.sumCol(t, "target", "val"); got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
	// Temp tables cleaned up; permanent job-status row records SUCCESS.
	s, _ := h.cluster.Connect(0)
	defer s.Close()
	res, err := s.Execute("SELECT status FROM s2v_job_status")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "SUCCESS" {
		t.Errorf("job status = %v, %v", res, err)
	}
	for _, tbl := range h.cluster.Catalog().Tables() {
		if strings.HasPrefix(tbl.Def.Name, "s2v_stage") || strings.HasPrefix(tbl.Def.Name, "s2v_task") {
			t.Errorf("temp table %q not cleaned up", tbl.Def.Name)
		}
	}
}

func TestS2VOverwriteReplacesExisting(t *testing.T) {
	h := newHarness(t, 2, 2, nil)
	h.sql(t, "CREATE TABLE target (id INTEGER, val FLOAT)", "INSERT INTO target VALUES (111, 1.0)")
	if err := saveDF(t, h, testDF(h, 50, 4), spark.SaveOverwrite, "target", 4, nil); err != nil {
		t.Fatal(err)
	}
	if got := h.count(t, "target"); got != 50 {
		t.Errorf("overwrite left %d rows, want 50", got)
	}
}

func TestS2VAppend(t *testing.T) {
	h := newHarness(t, 4, 2, nil)
	h.sql(t, "CREATE TABLE target (id INTEGER, val FLOAT) SEGMENTED BY HASH(id)",
		"INSERT INTO target VALUES (100000, 0.5)")
	if err := saveDF(t, h, testDF(h, 300, 4), spark.SaveAppend, "target", 4, nil); err != nil {
		t.Fatal(err)
	}
	if got := h.count(t, "target"); got != 301 {
		t.Errorf("append left %d rows, want 301", got)
	}
}

func TestS2VAppendMissingTarget(t *testing.T) {
	h := newHarness(t, 2, 2, nil)
	err := saveDF(t, h, testDF(h, 10, 2), spark.SaveAppend, "missing", 2, nil)
	if err == nil {
		t.Fatal("append into missing table should fail")
	}
}

func TestS2VErrorIfExists(t *testing.T) {
	h := newHarness(t, 2, 2, nil)
	h.sql(t, "CREATE TABLE target (id INTEGER, val FLOAT)")
	if err := saveDF(t, h, testDF(h, 10, 2), spark.SaveErrorIfExists, "target", 2, nil); err == nil {
		t.Fatal("errorIfExists should fail on existing table")
	}
}

// The central claim: task failures at every phase boundary, duplicated work,
// and speculative execution never produce partial or duplicate loads.
func TestS2VExactlyOnceUnderTaskFailures(t *testing.T) {
	checkpoints := []string{
		"s2v.task_start",
		"s2v.phase1.before_copy",
		"s2v.phase1.after_copy",
		"s2v.phase1.after_commit", // the subtle §2.2.2 case: die right after committing
		"s2v.phase2.all_done",
		"s2v.phase3.after",
		"s2v.phase5.before_commit",
		"s2v.phase5.after_commit", // die after the final commit
	}
	for _, cp := range checkpoints {
		cp := cp
		t.Run(cp, func(t *testing.T) {
			inj := spark.NewFailureInjector()
			inj.FailTaskAt(-1, 0, cp, 2) // two first-attempt tasks die there
			h := newHarness(t, 4, 4, inj)
			df := testDF(h, 600, 6)
			if err := saveDF(t, h, df, spark.SaveOverwrite, "target", 6, map[string]string{"jobname": "j_" + cp}); err != nil {
				t.Fatalf("save with failures at %s: %v", cp, err)
			}
			if got := h.count(t, "target"); got != 600 {
				t.Fatalf("failures at %s: target has %d rows, want 600", cp, got)
			}
			want := float64(599*600)/2 + 0.25*600
			if got := h.sumCol(t, "target", "val"); got != want {
				t.Errorf("failures at %s: sum %v, want %v (duplicate or partial load)", cp, got, want)
			}
		})
	}
}

func TestS2VSpeculativeExecution(t *testing.T) {
	inj := spark.NewFailureInjector()
	inj.Speculate(0).Speculate(3) // concurrent duplicate attempts, side effects real
	h := newHarness(t, 4, 4, inj)
	if err := saveDF(t, h, testDF(h, 400, 4), spark.SaveOverwrite, "target", 4, nil); err != nil {
		t.Fatal(err)
	}
	if got := h.count(t, "target"); got != 400 {
		t.Fatalf("speculation duplicated data: %d rows, want 400", got)
	}
	want := float64(399*400)/2 + 0.25*400
	if got := h.sumCol(t, "target", "val"); got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
}

func TestS2VTotalSparkFailure(t *testing.T) {
	inj := spark.NewFailureInjector()
	inj.KillJobAt(1, "s2v.phase1.after_copy")
	h := newHarness(t, 4, 2, inj)
	h.sql(t, "CREATE TABLE target (id INTEGER, val FLOAT)", "INSERT INTO target VALUES (7, 7.0)")
	err := saveDF(t, h, testDF(h, 200, 4), spark.SaveOverwrite, "target", 4, map[string]string{"jobname": "killed_job"})
	if err == nil {
		t.Fatal("killed job should report failure")
	}
	if !errors.Is(err, spark.ErrJobKilled) {
		t.Errorf("error = %v, want ErrJobKilled", err)
	}
	// Target untouched; permanent status table records the failure — the
	// §3.2 story for a user whose Spark cluster died mid-save.
	if got := h.count(t, "target"); got != 1 {
		t.Errorf("total failure polluted target: %d rows, want 1", got)
	}
	s, _ := h.cluster.Connect(0)
	defer s.Close()
	res, err := s.Execute("SELECT status FROM s2v_job_status WHERE job_name = 'killed_job'")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "FAILED" {
		t.Errorf("job status after kill = %v, %v", res, err)
	}
}

func TestS2VRejectedRowsTolerance(t *testing.T) {
	h := newHarness(t, 2, 2, nil)
	// A VARCHAR DataFrame column against an INTEGER target column makes the
	// COPY reject those rows server-side. Build via CSV-typed frame.
	schema := types.NewSchema(types.Column{Name: "id", T: types.Int64}, types.Column{Name: "val", T: types.Float64})
	rows := make([]types.Row, 100)
	for i := range rows {
		rows[i] = types.Row{types.IntValue(int64(i)), types.FloatValue(1)}
	}
	df := spark.CreateDataFrame(h.sc, schema, rows, 2)
	// Zero tolerance, zero rejects: fine.
	if err := saveDF(t, h, df, spark.SaveOverwrite, "target", 2, map[string]string{"failedRowsPercentTolerance": "0.0"}); err != nil {
		t.Fatal(err)
	}
	if got := h.count(t, "target"); got != 100 {
		t.Errorf("rows = %d", got)
	}
}

func TestS2VManyPartitionsFewRows(t *testing.T) {
	h := newHarness(t, 4, 4, nil)
	if err := saveDF(t, h, testDF(h, 3, 1), spark.SaveOverwrite, "tiny", 8, nil); err != nil {
		t.Fatal(err)
	}
	// More partitions than rows: empty tasks still follow the protocol.
	if got := h.count(t, "tiny"); got != 3 {
		t.Errorf("rows = %d, want 3", got)
	}
}

func TestS2VRoundTripThroughV2S(t *testing.T) {
	// The paper's own experimental setup (§4.1): save with S2V, load back
	// with V2S, verify the data is exactly the same.
	h := newHarness(t, 4, 4, nil)
	df := testDF(h, 800, 8)
	if err := saveDF(t, h, df, spark.SaveOverwrite, "rt", 8, nil); err != nil {
		t.Fatal(err)
	}
	back, err := h.sc.Read().Format(DefaultSourceName).Options(loadOpts(h, "rt", 16)).Load()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := back.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 800 {
		t.Fatalf("round trip: %d rows, want 800", len(rows))
	}
	var sum float64
	for _, r := range rows {
		sum += r[1].F
	}
	want := float64(799*800)/2 + 0.25*800
	if sum != want {
		t.Errorf("round trip sum %v, want %v", sum, want)
	}
}

// ---------- Options ----------

// copyCapture is a Connector that keeps every COPY stream as it was sent,
// and how each COPY ended.
type copyCapture struct {
	client.Connector
	mu      sync.Mutex
	streams [][]byte
	errs    []error
}

func (c *copyCapture) Connect(ctx context.Context, addr string) (client.Conn, error) {
	conn, err := c.Connector.Connect(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &capturedConn{Conn: conn, capture: c}, nil
}

type capturedConn struct {
	client.Conn
	capture *copyCapture
}

func (c *capturedConn) CopyFrom(ctx context.Context, sql string, r io.Reader) (*vertica.Result, error) {
	var sent bytes.Buffer
	res, err := c.Conn.CopyFrom(ctx, sql, io.TeeReader(r, &sent))
	c.capture.mu.Lock()
	c.capture.streams = append(c.capture.streams, sent.Bytes())
	c.capture.errs = append(c.capture.errs, err)
	c.capture.mu.Unlock()
	return res, err
}

// TestS2VSendsAvroRaw: every task's COPY stream is an Avro file whose header
// names the null codec — its metadata entry is the key "avro.codec" and the
// value "null", each behind its zigzag length — and the files hold the job's
// rows.
func TestS2VSendsAvroRaw(t *testing.T) {
	h := newHarness(t, 2, 2, nil)
	capture := &copyCapture{Connector: client.InProc(h.cluster)}
	NewDefaultSource(capture).Register()
	if err := saveDF(t, h, testDF(h, 1000, 4), spark.SaveOverwrite, "target", 4, nil); err != nil {
		t.Fatal(err)
	}
	if len(capture.streams) != 4 {
		t.Fatalf("%d COPY streams, want one per partition (4)", len(capture.streams))
	}
	rows := 0
	for i, s := range capture.streams {
		if !bytes.Contains(s, []byte("\x14avro.codec\x08null")) {
			t.Errorf("stream %d: header does not name the null codec: %q", i, s[:min(len(s), 200)])
		}
		_, got, err := avro.ReadAll(bytes.NewReader(s))
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		rows += len(got)
	}
	if rows != 1000 {
		t.Errorf("the streams hold %d rows, want 1000", rows)
	}
}

func TestParseOptions(t *testing.T) {
	o, err := parseS2VOptions(map[string]string{
		"host": "h", "table": "t", "numPartitions": "32",
		"failedRowsPercentTolerance": "0.02", "user": "u", "JobName": "j1",
		"copy_format": "CSV", "retry_attempts": "5", "retry_backoff_ms": "2", "op_timeout_ms": "250",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.NumPartitions != 32 || o.FailedRowsPercentTolerance != 0.02 || o.User != "u" || o.JobName != "j1" || o.CopyFormat != "csv" {
		t.Errorf("opts = %+v", o)
	}
	if r := o.Retry; r.MaxAttempts != 5 || r.BaseBackoff != 2*time.Millisecond || r.OpTimeout != 250*time.Millisecond {
		t.Errorf("retry policy = %+v", r)
	}
	if o, err := parseS2VOptions(map[string]string{"host": "h", "table": "t"}); err != nil || o.CopyFormat != "avro" {
		t.Errorf("default copy_format = %q (%v), want avro", o.CopyFormat, err)
	}
	v, err := parseV2SOptions(map[string]string{"HOST": "h", "Table": "t", "numpartitions": "8", "disable_locality_optimization": "true", "db": ""})
	if err != nil || v.Host != "h" || v.Table != "t" || v.NumPartitions != 8 || !v.DisableLocality {
		t.Errorf("v2s opts = %+v (%v)", v, err)
	}

	base := func(extra ...string) map[string]string {
		m := map[string]string{"host": "h", "table": "t"}
		for i := 0; i < len(extra); i += 2 {
			m[extra[i]] = extra[i+1]
		}
		return m
	}
	load := func(m map[string]string) error { _, err := parseV2SOptions(m); return err }
	save := func(m map[string]string) error { _, err := parseS2VOptions(m); return err }
	for _, tc := range []struct {
		name  string
		parse func(map[string]string) error
		opts  map[string]string
		want  string // substring of the error
	}{
		{"missing table", load, map[string]string{"host": "h"}, `"table" is required`},
		{"missing host", save, map[string]string{"table": "t"}, `"host" is required`},
		// A key the direction does not know is named, with the ones it does.
		{"misspelled key", load, base("numPartition", "8"), `unknown load option "numPartition" (known: table, host, user, password, db, numPartitions,`},
		{"misspelled key on save", save, base("tolerance", "0.1"), `unknown save option "tolerance" (known: `},
		{"save key on a load", load, base("copy_format", "csv"), `unknown load option "copy_format"`},
		{"save key on a load", load, base("jobname", "j"), `unknown load option "jobname"`},
		{"load key on a save", save, base("disable_locality_optimization", "true"), `unknown save option "disable_locality_optimization"`},
		// Each value that does not parse or is out of range.
		{"numPartitions", load, base("numPartitions", "-1"), `bad numPartitions "-1"`},
		{"numPartitions", save, base("numPartitions", "0"), `bad numPartitions "0"`},
		{"numPartitions", load, base("NUMPARTITIONS", "many"), `bad numPartitions "many"`},
		{"retry_attempts", save, base("retry_attempts", "banana"), `bad retry_attempts "banana"`},
		{"retry_backoff_ms", load, base("retry_backoff_ms", "0"), `bad retry_backoff_ms "0"`},
		{"op_timeout_ms", load, base("op_timeout_ms", "1s"), `bad op_timeout_ms "1s"`},
		{"locality", load, base("disable_locality_optimization", "maybe"), `bad disable_locality_optimization "maybe"`},
		{"tolerance", save, base("failedRowsPercentTolerance", "lots"), `bad failedRowsPercentTolerance "lots"`},
		{"tolerance", save, base("failedRowsPercentTolerance", "1.5"), `failedRowsPercentTolerance must be in [0,1]`},
		{"tolerance", save, base("failedRowsPercentTolerance", "-0.1"), `failedRowsPercentTolerance must be in [0,1]`},
		{"tolerance", save, base("failedRowsPercentTolerance", "NaN"), `failedRowsPercentTolerance must be in [0,1]`},
		{"copy_format", save, base("copy_format", "parquet"), `bad copy_format "parquet"`},
	} {
		err := tc.parse(tc.opts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %v: got %v, want an error containing %q", tc.name, tc.opts, err, tc.want)
		}
	}
}

// TestS2VCommitsWhenElectedCommitterDies replays, deterministically, the
// schedule in which the five-phase protocol published nothing: the elected
// committer died, and the one attempt that could have taken over had
// already returned. Stocator's analysis of task attempts against an output
// commit gives the cases; each maps to a step of Figure 5:
//
//   - an attempt dies before it stages its data: nothing of it is visible,
//     and its retry stages again (phase 1's transaction);
//   - an attempt dies after staging: its retry finds the task's done flag
//     and goes straight to phase 2;
//   - two attempts of one task both stage (speculation): the conditional
//     update on the done flag admits one, and the other rolls its COPY back;
//   - one attempt of a task returns while another is still running, and
//     Spark counts the task done and retries neither: if the one still
//     running is the elected committer and it dies before publishing, no
//     task is left to publish — this test;
//   - the committer dies after publishing: its retry finds the job finished;
//   - the whole job dies: nothing is published and the job is FAILED.
//
// The schedule: attempt A (0) of partition 0 stages first; its speculative
// duplicate B (attempt 1) then finds partition 0 done while partition 1 is
// still staging, and returns from phase 2 ("someone else will commit"), so
// Spark counts partition 0 done. Partition 1 stages and reaches phase 3
// only after A has won the election, and loses it; A dies right after
// winning, and is not retried because B already returned. Every task
// returns nil, so the driver must notice the unfinished job and publish it.
func TestS2VCommitsWhenElectedCommitterDies(t *testing.T) {
	inj := spark.NewFailureInjector()
	inj.Speculate(0)
	inj.HoldAt(0, 1, "s2v.task_start", "A staged").
		ReleaseAt(0, 0, "s2v.phase1.after_commit", "A staged")
	inj.HoldAt(1, 0, "s2v.phase1.after_copy", "B returned").
		ReleaseAt(0, 1, spark.TaskEnd, "B returned")
	inj.HoldAt(0, 0, "s2v.phase1.after_commit", "partition 1 staged").
		ReleaseAt(1, 0, "s2v.phase1.after_commit", "partition 1 staged")
	inj.HoldAt(1, 0, "s2v.phase2.all_done", "A elected").
		ReleaseAt(0, 0, "s2v.phase3.after", "A elected").
		FailTaskAt(0, 0, "s2v.phase3.after", 1)
	h := newHarness(t, 2, 2, inj)
	if err := saveDF(t, h, testDF(h, 200, 2), spark.SaveOverwrite, "target", 2, map[string]string{"jobname": "dead_committer"}); err != nil {
		t.Fatalf("save: %v (injected: %v)", err, inj.Log())
	}
	if !strings.Contains(strings.Join(inj.Log(), " "), "s2v.phase3.after@task0.attempt0") {
		t.Fatalf("the elected committer never died: %v", inj.Log())
	}
	if got := h.count(t, "target"); got != 200 {
		t.Fatalf("target has %d rows, want 200 (injected: %v)", got, inj.Log())
	}
	want := float64(199*200)/2 + 0.25*200
	if got := h.sumCol(t, "target", "val"); got != want {
		t.Errorf("sum %v, want %v (duplicate or partial load)", got, want)
	}
	s, _ := h.cluster.Connect(0)
	defer s.Close()
	res, err := s.Execute("SELECT status, finished FROM s2v_job_status WHERE job_name = 'dead_committer'")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "SUCCESS" || !res.Rows[0][1].AsBool() {
		t.Errorf("job status = %v, %v; want one finished SUCCESS row", res, err)
	}
}
