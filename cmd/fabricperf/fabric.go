package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"

	"vsfabric/internal/client"
	"vsfabric/internal/core"
	"vsfabric/internal/perf"
	"vsfabric/internal/server"
	"vsfabric/internal/spark"
	"vsfabric/internal/storage"
	"vsfabric/internal/vertica"
	"vsfabric/internal/workload"
)

// Dataset and load shape. These are the benchmark's fixed inputs; a change
// to any of them invalidates bench/baseline.
const (
	// d1Rows × (1 INT + d1Cols FLOAT) ≈ 26 MB raw: it fits the 64 MB
	// container cache (storage.DefaultCacheBytes), so scans never go back to
	// disk. ISSUE.md's 400 000 rows were cut once, as it allows, so that a
	// run_seconds window holds ≥15 S2V iterations.
	d1Rows  = 300_000
	d1Cols  = 10
	s2vRows = 150_000
	dimA    = 100 // dim_a(pcol, grp): one row per pcol value, grp = pcol % dimB
	dimB    = 10  // dim_b(grp, name)
	// wosMoveoutRows is small enough that sql_mix's single-row inserts push
	// the tuple mover through several moveout cycles per window.
	wosMoveoutRows = 16
	vNodes         = 2
	// scratchDir holds DataDirs and Chrome traces; it is inside the working
	// directory because the benchmark may write nowhere else.
	scratchDir = ".fabricperf"
)

// nproc is the concurrency of every workload: executors, SQL connections,
// and (doubled) V2S/S2V partitions.
var nproc = runtime.GOMAXPROCS(0)

var bg = context.Background()

// fabric is one running system under test: a durable 2-node cluster (k-safety
// 0, as in the paper's §4.1) served over loopback TCP with wire protocol v2,
// a Spark context, and the datasets loaded and moved out.
type fabric struct {
	dir     string
	cl      *vertica.Cluster
	servers []*server.Server
	dial    *server.DialConnector
	sc      *spark.Context
	host    string
	seed    uint64

	// tr is nil while measuring. conn is what the connector and the SQL
	// clients dial through: dial itself, or its span-recording wrapper while
	// tr is set.
	tr   *perf.Tracer
	conn client.Connector

	// eventID numbers sql_mix's INSERTs into events; inserted counts the
	// acknowledged ones, so the end-of-window check can compare the table
	// against it.
	eventID, inserted atomic.Int64
	// jobSeq names S2V jobs: the connector's own default numbering restarts
	// whenever setTracer registers a fresh source, and job names must stay
	// unique in the cluster's permanent s2v_job_status table.
	jobSeq atomic.Int64
}

var fabricSeq atomic.Int64

// openFabric starts a cluster under a fresh DataDir, loads d1 through the
// connector's own S2V path, creates the dimension and events tables, and
// checkpoints so every row sits in ROS containers on disk.
func openFabric(seed uint64) (f *fabric, err error) {
	dir := filepath.Join(scratchDir, fmt.Sprintf("data-%d-%d", os.Getpid(), fabricSeq.Add(1)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f = &fabric{dir: dir, seed: seed}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	f.cl, err = vertica.NewCluster(vertica.Config{Nodes: vNodes, DataDir: dir, WOSMoveoutRows: wosMoveoutRows})
	if err != nil {
		return nil, err
	}
	f.dial = &server.DialConnector{Endpoints: map[string]string{}}
	for i := 0; i < vNodes; i++ {
		srv := server.New(f.cl, i)
		ep, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		f.servers = append(f.servers, srv)
		f.dial.Endpoints[f.cl.Node(i).Addr] = ep
	}
	f.host = f.cl.Node(0).Addr
	f.sc = spark.NewContext(spark.Conf{AppName: "fabricperf", NumExecutors: nproc, CoresPerExecutor: 1})
	f.setTracer(nil)

	d1 := workload.D1WithIntDataFrame(f.sc, d1Rows, d1Cols, partitions(), seed)
	if err := f.save(d1, "d1"); err != nil {
		return nil, fmt.Errorf("loading d1: %w", err)
	}
	conn, err := f.conn.Connect(bg, f.host)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	var a, b []string
	for p := 0; p < dimA; p++ {
		a = append(a, fmt.Sprintf("(%d, %d)", p, p%dimB))
	}
	for g := 0; g < dimB; g++ {
		b = append(b, fmt.Sprintf("(%d, 'g%d')", g, g))
	}
	for _, sql := range []string{
		"CREATE TABLE dim_a (pcol INTEGER, grp INTEGER) UNSEGMENTED ALL NODES",
		"CREATE TABLE dim_b (grp INTEGER, name VARCHAR) UNSEGMENTED ALL NODES",
		"CREATE TABLE events (id INTEGER, pcol INTEGER, v FLOAT) SEGMENTED BY HASH(id)",
		"INSERT INTO dim_a VALUES " + strings.Join(a, ", "),
		"INSERT INTO dim_b VALUES " + strings.Join(b, ", "),
	} {
		if _, err := conn.Execute(bg, sql); err != nil {
			return nil, fmt.Errorf("%s: %w", sql, err)
		}
	}
	if err := f.cl.Checkpoint(); err != nil {
		return nil, err
	}
	return f, nil
}

// partitions is numPartitions for every connector job.
func partitions() int { return 2 * nproc }

// connectorOptions are the Data Source API options of a job against table.
func (f *fabric) connectorOptions(table string) map[string]string {
	return map[string]string{"host": f.host, "table": table, "numPartitions": fmt.Sprint(partitions())}
}

// save runs one S2V job, all five phases, replacing table.
func (f *fabric) save(df *spark.DataFrame, table string) error {
	return df.Write().Format(core.DefaultSourceName).Options(f.connectorOptions(table)).
		Option("jobname", fmt.Sprintf("fabricperf_%d", f.jobSeq.Add(1))).Mode(spark.SaveOverwrite).Save()
}

// setTracer switches between measuring (nil) and tracing: the connector is
// re-registered over the plain or the span-recording dialer, with the
// tracer's collector as its Observer.
func (f *fabric) setTracer(tr *perf.Tracer) {
	f.tr = tr
	f.conn = f.dial
	if tr != nil {
		f.conn = tracedConnector{inner: f.dial, tr: tr}
	}
	core.NewDefaultSource(f.conn).WithObserver(tr.Observer()).Register()
}

// Close stops the servers and the cluster and deletes the DataDir. Every
// client connection must be closed first: a server waits for its sessions.
func (f *fabric) Close() {
	for _, s := range f.servers {
		s.Close()
	}
	if f.cl != nil {
		_ = f.cl.Close() // the directory is deleted next; nothing to salvage
	}
	_ = os.RemoveAll(f.dir)
}

// containerCacheBytes is the decoded-container cache the cluster runs with
// (the default; the benchmark sets no override).
const containerCacheBytes = storage.DefaultCacheBytes
