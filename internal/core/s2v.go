package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"vsfabric/internal/avro"
	"vsfabric/internal/client"
	"vsfabric/internal/obs"
	"vsfabric/internal/resilience"
	"vsfabric/internal/sim"
	"vsfabric/internal/spark"
	"vsfabric/internal/types"
)

// JobStatusTable is the permanent record of every S2V job (§3.2: "This table
// serves as a record of all S2V jobs and is not deleted upon termination"),
// the table a user consults after a total Spark failure.
const JobStatusTable = "s2v_job_status"

// ErrToleranceExceeded reports that more rows were rejected than the user's
// failedRowsPercentTolerance allows; the save is marked FAILED and the
// target table is untouched.
var ErrToleranceExceeded = errors.New("core: rejected rows exceed failedRowsPercentTolerance")

// s2vWriter runs one S2V job (§3.2).
type s2vWriter struct {
	pool client.Connector
	// rpool wraps pool with failover/backoff; built once per run, its host
	// set is installed after setup discovers the cluster layout.
	rpool *resilience.ResilientConnector
	opts  S2VOptions
	mode  spark.SaveMode

	staging   string
	status    string
	committer string
	addrs     []string
	schema    types.Schema
	// jobSC is the root s2v.job span's identity; every task parents its
	// phase spans (and, through them, the engine spans on whichever node the
	// task connected to) under it.
	jobSC obs.SpanContext
}

// taskReport is what each partition's task returns to the driver.
type taskReport struct {
	Loaded         int64
	Rejected       int64
	RejectedSample []string
}

// run opens the job's root trace span and executes setup, the parallel
// five-phase task protocol, and teardown under it. The root span covers the
// whole job wall-clock — S2V is synchronous — and closes with the job's
// outcome.
func (w *s2vWriter) run(sc *spark.Context, df *spark.DataFrame) error {
	job := obs.Start(w.opts.Observer, "s2v.job", "driver")
	job.SetDetail(fmt.Sprintf("job %s -> %s", w.opts.JobName, w.opts.Table))
	w.jobSC = job.SpanContext()
	err := w.runJob(sc, df)
	job.End(err)
	return err
}

// runJob executes setup, the parallel five-phase task protocol, and teardown.
func (w *s2vWriter) runJob(sc *spark.Context, df *spark.DataFrame) error {
	trace := sc.Conf().Trace
	setupRec := trace.Task("driver-00-setup", "")
	setupCtx := sim.WithTask(obs.WithPeer(context.Background(), "driver"), setupRec)
	setupCtx = obs.WithSpanContext(setupCtx, w.jobSC)

	w.rpool = resilience.NewResilient(w.pool, nil, w.opts.Retry)
	w.rpool.SetObserver(w.opts.Observer)
	// The driver connection is self-healing: a connection dropped at a phase
	// boundary (between statements) is re-dialed — failing over to another
	// node — and the statement retried. Every statement sent on it is
	// autocommit and either idempotent or guarded (DROP IF EXISTS,
	// conditional UPDATE), so a retry cannot double-apply; setup's INSERTs,
	// which are neither, run in seed's transaction instead.
	conn := resilience.NewDriverConn(w.rpool, w.opts.Host)
	defer conn.Close()

	if w.opts.NumPartitions > 0 {
		rep, err := df.Repartition(w.opts.NumPartitions)
		if err != nil {
			return err
		}
		df = rep
	}
	rdd, err := df.RDD()
	if err != nil {
		return err
	}
	nParts := rdd.NumPartitions()
	w.schema = df.Schema()

	sp := obs.StartChild(setupCtx, w.opts.Observer, "s2v.setup", "driver")
	sp.SetDetail(w.opts.JobName)
	err = w.setup(obs.WithSpan(setupCtx, sp), conn, nParts)
	sp.End(err)
	if err != nil {
		return err
	}

	reports := spark.MapPartitions(rdd, func(tc *spark.TaskContext, p int, rows []types.Row) ([]taskReport, error) {
		rep, err := w.runTask(tc, p, rows)
		if err != nil {
			return nil, err
		}
		return []taskReport{rep}, nil
	})
	_, jobErr := reports.Collect()

	teardownRec := trace.Task("driver-99-teardown", "")
	teardownCtx := sim.WithTask(obs.WithPeer(context.Background(), "driver"), teardownRec)
	teardownCtx = obs.WithSpanContext(teardownCtx, w.jobSC)
	if jobErr != nil {
		// Total failure or a task out of retries: the staging table is
		// abandoned, the target is untouched, and the permanent status
		// table records the failure (best effort — if Vertica is also gone
		// the row simply stays unfinished, §3.2).
		w.markFailed(teardownCtx, conn)
		w.dropTemp(teardownCtx, conn, true)
		return fmt.Errorf("core: S2V job %q failed: %w", w.opts.JobName, jobErr)
	}

	// Every task returned. The elected committer has normally published the
	// job; if it died after phase 3 while a duplicate of its partition had
	// already returned from phase 2, nobody did, and the driver publishes in
	// its place through the same transaction. Its conditional UPDATE ...
	// WHERE finished = FALSE admits one publisher, so this cannot commit twice.
	st, err := w.jobStatus(teardownCtx, conn)
	if err != nil {
		return err
	}
	var commitErr error
	if !st.finished {
		commitErr = w.driverCommit(teardownCtx)
		if st, err = w.jobStatus(teardownCtx, conn); err != nil {
			return err
		}
	}
	switch {
	case st.finished && st.status == "SUCCESS":
		w.dropTemp(teardownCtx, conn, false)
		return nil
	case st.finished && st.status == "FAILED":
		w.dropTemp(teardownCtx, conn, true)
		return fmt.Errorf("%w: %.4f%% rejected (job %q)", ErrToleranceExceeded, st.pct*100, w.opts.JobName)
	default:
		w.markFailed(teardownCtx, conn)
		w.dropTemp(teardownCtx, conn, true)
		return fmt.Errorf("core: S2V job %q left unfinished (status %s) after its tasks returned (driver publish: %v)", w.opts.JobName, st.status, commitErr)
	}
}

// jobState is the job's row in the permanent status table.
type jobState struct {
	status   string
	pct      float64
	finished bool
}

// jobStatus reads the job's row from the permanent status table.
func (w *s2vWriter) jobStatus(ctx context.Context, conn client.Conn) (jobState, error) {
	res, err := conn.Execute(ctx, fmt.Sprintf(
		"SELECT status, failed_rows_percent, finished FROM %s WHERE job_name = '%s'", JobStatusTable, types.SQLEscape(w.opts.JobName)))
	if err != nil {
		return jobState{}, err
	}
	if len(res.Rows) != 1 {
		return jobState{}, fmt.Errorf("core: job %q missing from %s", w.opts.JobName, JobStatusTable)
	}
	r := res.Rows[0]
	return jobState{status: r[0].S, pct: r[1].F, finished: r[2].AsBool()}, nil
}

// setup creates the staging table, the three bookkeeping tables, and the
// per-task status rows (§3.2: "3 temporary tables, and 1 permanent table").
func (w *s2vWriter) setup(ctx context.Context, conn client.Conn, nParts int) error {
	job := sanitizeIdent(w.opts.JobName)
	w.staging = "s2v_stage_" + job
	w.status = "s2v_task_status_" + job
	w.committer = "s2v_last_committer_" + job

	// Overwrite is always allowed: the commit swaps staging over the target,
	// and staging takes the default segmentation. The other modes ask what
	// the target is; an append's staging is created LIKE it.
	stagingSegmented := true
	if w.mode != spark.SaveOverwrite {
		target, err := describe(ctx, conn, w.opts.Table)
		if err != nil && !errors.Is(err, errNoRelation) {
			return err
		}
		exists := err == nil && !target.isView
		switch {
		case w.mode == spark.SaveErrorIfExists && exists:
			return fmt.Errorf("core: table %q already exists (mode: errorIfExists)", w.opts.Table)
		case w.mode == spark.SaveAppend && !exists:
			return fmt.Errorf("core: table %q does not exist (mode: append)", w.opts.Table)
		case w.mode == spark.SaveAppend && !target.schema.Equal(w.schema):
			return fmt.Errorf("core: DataFrame schema %s does not match target %s", w.schema, target.schema)
		case w.mode == spark.SaveAppend:
			stagingSegmented = target.segmented
		}
	}

	stagingDDL := fmt.Sprintf("CREATE TEMP TABLE %s %s", w.staging, w.schema)
	if w.mode == spark.SaveAppend {
		// Staging mirrors the target's definition so the final
		// INSERT..SELECT is segment-aligned.
		stagingDDL = fmt.Sprintf("CREATE TEMP TABLE %s LIKE %s", w.staging, w.opts.Table)
	}
	for _, stmt := range []string{
		fmt.Sprintf("DROP TABLE IF EXISTS %s", w.staging),
		fmt.Sprintf("DROP TABLE IF EXISTS %s", w.status),
		fmt.Sprintf("DROP TABLE IF EXISTS %s", w.committer),
		stagingDDL,
		fmt.Sprintf("CREATE TEMP TABLE %s (task_id INTEGER, rows_inserted INTEGER, rows_rejected INTEGER, done BOOLEAN) UNSEGMENTED ALL NODES", w.status),
		fmt.Sprintf("CREATE TEMP TABLE %s (task_id INTEGER) UNSEGMENTED ALL NODES", w.committer),
		fmt.Sprintf("CREATE TABLE IF NOT EXISTS %s (job_name VARCHAR, failed_rows_percent FLOAT, finished BOOLEAN, status VARCHAR) UNSEGMENTED ALL NODES", JobStatusTable),
	} {
		if _, err := conn.Execute(ctx, stmt); err != nil {
			return err
		}
	}
	lay, err := layout(ctx, conn, w.staging, stagingSegmented)
	if err != nil {
		return err
	}
	w.addrs = lay.addrs
	// From here on, task and driver reconnects can fail over cluster-wide.
	w.rpool.SetHosts(w.addrs)
	var taskRows []string
	for p := 0; p < nParts; p++ {
		taskRows = append(taskRows, fmt.Sprintf("(%d, 0, 0, FALSE)", p))
	}
	return w.seed(ctx, conn, []string{
		fmt.Sprintf("INSERT INTO %s VALUES (-1)", w.committer),
		fmt.Sprintf("INSERT INTO %s VALUES ('%s', 0.0, FALSE, 'RUNNING')", JobStatusTable, types.SQLEscape(w.opts.JobName)),
		fmt.Sprintf("INSERT INTO %s VALUES %s", w.status, strings.Join(taskRows, ", ")),
	})
}

// seed inserts the rows a job starts from — the committer's -1, the job's
// RUNNING row and one status row per task — in one transaction on a session
// of its own, as driverCommit does: the self-healing driver connection may
// re-dial inside a transaction. An INSERT is not safe to repeat, so a retry
// after a transient failure, whose outcome is unknown, first reads the
// committer table (created empty just before) and runs the transaction again
// only if it did not commit.
func (w *s2vWriter) seed(ctx context.Context, conn client.Conn, inserts []string) error {
	return w.rpool.Attempts(ctx, w.opts.Host, "seed", func(attempt int) error {
		if attempt > 0 {
			res, err := conn.Execute(ctx, "SELECT COUNT(*) FROM "+w.committer)
			if err != nil || res.Rows[0][0].I > 0 {
				return err
			}
		}
		sess, err := w.rpool.Connect(ctx, w.opts.Host)
		if err != nil {
			return err
		}
		defer sess.Close()
		for _, stmt := range append(append([]string{"BEGIN"}, inserts...), "COMMIT") {
			if _, err := sess.Execute(ctx, stmt); err != nil {
				return err
			}
		}
		return nil
	})
}

// phaseSpan opens one "s2v.phaseN" span for a task, parented under the span
// context carried by ctx (the root s2v.job span). Every phase a task enters
// gets exactly one span, and the span closes with that phase's error — the
// contract the observability tests pin down.
func (w *s2vWriter) phaseSpan(ctx context.Context, name string, tc *spark.TaskContext, p int) *obs.ActiveSpan {
	sp := obs.StartChild(ctx, w.opts.Observer, name, tc.ExecNode)
	sp.SetDetail(fmt.Sprintf("job %s task %d attempt %d", w.opts.JobName, p, tc.Attempt))
	return sp
}

// runTask is one task attempt's walk through the five phases of Figure 5.
// It is safe to run any number of times for the same partition, concurrently
// or after failures at any point — the status tables arbitrate.
func (w *s2vWriter) runTask(tc *spark.TaskContext, p int, rows []types.Row) (taskReport, error) {
	var rep taskReport
	if err := tc.Checkpoint("s2v.task_start"); err != nil {
		return rep, err
	}
	// The task joins the job's trace: status queries parent directly under the
	// root s2v.job span, and each phase body runs under its own phase span so
	// the engine spans it triggers (on whichever node, local or remote) nest
	// correctly.
	ctx := obs.WithSpanContext(tc.Context(), w.jobSC)
	// Balance connections across the cluster; retries shift to another node
	// so a single bad node cannot wedge a task. The resilient pool adds
	// connect-level failover underneath: a refused or down node costs a
	// backoff, not a whole task attempt.
	addr := w.addrs[(p+tc.Attempt)%len(w.addrs)]
	conn, err := w.rpool.Connect(ctx, addr)
	if err != nil {
		return rep, err
	}
	defer conn.Close()

	// A restarted attempt first inquires the state of progress (§3.2: tasks
	// "utilize these tables to inquire the state of progress of all other
	// tasks"). If the job already committed, the staging table is gone and
	// there is nothing left to do; if this task's earlier attempt already
	// saved its data, skip straight to phase 2.
	res0, err := conn.Execute(ctx, fmt.Sprintf(
		"SELECT finished FROM %s WHERE job_name = '%s'", JobStatusTable, types.SQLEscape(w.opts.JobName)))
	if err != nil {
		return rep, err
	}
	if len(res0.Rows) == 1 && res0.Rows[0][0].AsBool() {
		return rep, nil
	}
	res0, err = conn.Execute(ctx, fmt.Sprintf(
		"SELECT done FROM %s WHERE task_id = %d", w.status, p))
	if err != nil {
		return rep, err
	}
	alreadyDone := len(res0.Rows) == 1 && res0.Rows[0][0].AsBool()

	// ---- Phase 1: save this partition into the staging table and flip the
	// task's done flag, both under one transaction.
	if !alreadyDone {
		sp := w.phaseSpan(ctx, "s2v.phase1", tc, p)
		err := w.phase1(obs.WithSpan(ctx, sp), tc, conn, p, rows, &rep)
		sp.AddRows(rep.Loaded)
		sp.AddRejected(rep.Rejected)
		sp.End(err)
		if err != nil {
			return rep, err
		}
	}

	// ---- Phase 2: are all tasks done?
	sp := w.phaseSpan(ctx, "s2v.phase2", tc, p)
	notDone, err := w.phase2(obs.WithSpan(ctx, sp), conn)
	sp.End(err)
	if err != nil {
		return rep, err
	}
	if notDone > 0 {
		return rep, nil // someone else will commit
	}
	if err := tc.Checkpoint("s2v.phase2.all_done"); err != nil {
		return rep, err
	}

	// ---- Phase 3: race to become the last committer (leader election via
	// conditional update).
	sp = w.phaseSpan(ctx, "s2v.phase3", tc, p)
	err = w.phase3(obs.WithSpan(ctx, sp), conn, p)
	sp.End(err)
	if err != nil {
		return rep, err
	}
	if err := tc.Checkpoint("s2v.phase3.after"); err != nil {
		return rep, err
	}

	// ---- Phase 4: did this task win?
	sp = w.phaseSpan(ctx, "s2v.phase4", tc, p)
	winner, err := w.phase4(obs.WithSpan(ctx, sp), conn)
	sp.End(err)
	if err != nil {
		return rep, err
	}
	if winner != int64(p) {
		return rep, nil
	}

	// ---- Phase 5: the last committer checks the tolerance and atomically
	// publishes staging into the target together with the final status.
	sp = w.phaseSpan(ctx, "s2v.phase5", tc, p)
	err = w.phase5(obs.WithSpan(ctx, sp), tc, conn)
	sp.End(err)
	return rep, err
}

// phase2 counts the tasks that have not yet staged their data.
func (w *s2vWriter) phase2(ctx context.Context, conn client.Conn) (int64, error) {
	res, err := conn.Execute(ctx, fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE done = FALSE", w.status))
	if err != nil {
		return 0, err
	}
	return singleInt(res)
}

// phase3 races to claim the committer slot via a conditional update.
func (w *s2vWriter) phase3(ctx context.Context, conn client.Conn, p int) error {
	if _, err := conn.Execute(ctx, "BEGIN"); err != nil {
		return err
	}
	res, err := conn.Execute(ctx, fmt.Sprintf(
		"UPDATE %s SET task_id = %d WHERE task_id = -1", w.committer, p))
	if err != nil {
		return err
	}
	if res.RowsAffected == 1 {
		_, err = conn.Execute(ctx, "COMMIT")
		return err
	}
	_, err = conn.Execute(ctx, "ROLLBACK")
	return err
}

// phase4 reads back which task won the committer election.
func (w *s2vWriter) phase4(ctx context.Context, conn client.Conn) (int64, error) {
	res, err := conn.Execute(ctx, fmt.Sprintf("SELECT task_id FROM %s", w.committer))
	if err != nil {
		return 0, err
	}
	return singleInt(res)
}

// phase5 is the last committer's publish: tolerance check, then an atomic
// status flip together with the staging-into-target move.
func (w *s2vWriter) phase5(ctx context.Context, tc *spark.TaskContext, conn client.Conn) error {
	return w.publish(ctx, conn, tc.Checkpoint)
}

// driverCommit is the driver's entry into phase 5, with no checkpoints, on a
// session of its own: the transaction cannot run on the self-healing driver
// connection, which may re-dial between two of its statements. Closing the
// session aborts whatever a failed publish left open.
func (w *s2vWriter) driverCommit(ctx context.Context) error {
	conn, err := w.rpool.Connect(ctx, w.opts.Host)
	if err != nil {
		return err
	}
	defer conn.Close()
	return w.publish(ctx, conn, func(string) error { return nil })
}

// publish is phase 5's body. The status flip is conditional on the job
// being unfinished, which makes the publish exactly once however many
// committers reach it.
func (w *s2vWriter) publish(ctx context.Context, conn client.Conn, checkpoint func(string) error) error {
	res, err := conn.Execute(ctx, fmt.Sprintf(
		"SELECT SUM(rows_inserted), SUM(rows_rejected) FROM %s", w.status))
	if err != nil {
		return err
	}
	inserted := res.Rows[0][0].AsFloat()
	rejected := res.Rows[0][1].AsFloat()
	pct := 0.0
	if inserted+rejected > 0 {
		pct = rejected / (inserted + rejected)
	}
	if err := checkpoint("s2v.phase5.before_commit"); err != nil {
		return err
	}
	if pct > w.opts.FailedRowsPercentTolerance {
		_, err := conn.Execute(ctx, fmt.Sprintf(
			"UPDATE %s SET finished = TRUE, failed_rows_percent = %g, status = 'FAILED' WHERE job_name = '%s' AND finished = FALSE",
			JobStatusTable, pct, types.SQLEscape(w.opts.JobName)))
		return err // driver surfaces the FAILED status
	}
	if _, err := conn.Execute(ctx, "BEGIN"); err != nil {
		return err
	}
	res, err = conn.Execute(ctx, fmt.Sprintf(
		"UPDATE %s SET finished = TRUE, failed_rows_percent = %g, status = 'SUCCESS' WHERE job_name = '%s' AND finished = FALSE",
		JobStatusTable, pct, types.SQLEscape(w.opts.JobName)))
	if err != nil {
		return err
	}
	if res.RowsAffected != 1 {
		// A duplicate (or an earlier attempt of this very task) already
		// committed; nothing left to do.
		_, err := conn.Execute(ctx, "ROLLBACK")
		return err
	}
	if w.mode == spark.SaveAppend {
		// One atomic server-side move of the staging data (§5 discusses its
		// cost; the transaction keeps it exactly-once).
		if _, err := conn.Execute(ctx, fmt.Sprintf("INSERT INTO %s SELECT * FROM %s", w.opts.Table, w.staging)); err != nil {
			return err
		}
	} else {
		// Overwrite: the staging table atomically becomes the target.
		if _, err := conn.Execute(ctx, fmt.Sprintf("DROP TABLE IF EXISTS %s", w.opts.Table)); err != nil {
			return err
		}
		if _, err := conn.Execute(ctx, fmt.Sprintf("ALTER TABLE %s RENAME TO %s", w.staging, w.opts.Table)); err != nil {
			return err
		}
	}
	if _, err := conn.Execute(ctx, "COMMIT"); err != nil {
		return err
	}
	return checkpoint("s2v.phase5.after_commit")
}

// phase1 copies the partition into the staging table and flips this task's
// done flag, both in one transaction. A duplicate that loses the conditional
// update aborts, discarding its copy.
func (w *s2vWriter) phase1(ctx context.Context, tc *spark.TaskContext, conn client.Conn, p int, rows []types.Row, rep *taskReport) error {
	if _, err := conn.Execute(ctx, "BEGIN"); err != nil {
		return err
	}
	if err := tc.Checkpoint("s2v.phase1.before_copy"); err != nil {
		return err
	}
	format := "AVRO"
	if w.opts.CopyFormat == "csv" {
		format = "CSV"
	}
	cs := client.NewCopyStream(ctx, conn, fmt.Sprintf(
		"COPY %s FROM STDIN FORMAT %s DIRECT REJECTMAX %d", w.staging, format, int64(1)<<40))
	if err := w.encodeRows(cs, rows); err != nil {
		// Abort reports the load's root cause (e.g. the server severing the
		// stream) which subsumes the local write error.
		if rootErr := cs.Abort(err); rootErr != nil {
			return rootErr
		}
		return err
	}
	cres, err := cs.Finish()
	if err != nil {
		return err
	}
	rep.Loaded, rep.Rejected = cres.Copy.Loaded, cres.Copy.Rejected
	rep.RejectedSample = cres.Copy.RejectedSample
	if err := tc.Checkpoint("s2v.phase1.after_copy"); err != nil {
		return err
	}
	res, err := conn.Execute(ctx, fmt.Sprintf(
		"UPDATE %s SET done = TRUE, rows_inserted = %d, rows_rejected = %d WHERE task_id = %d AND done = FALSE",
		w.status, rep.Loaded, rep.Rejected, p))
	if err != nil {
		return err
	}
	if res.RowsAffected == 1 {
		if _, err := conn.Execute(ctx, "COMMIT"); err != nil {
			return err
		}
	} else {
		// A duplicate of this task already saved its data; abort discards
		// this attempt's copy so nothing is staged twice.
		if _, err := conn.Execute(ctx, "ROLLBACK"); err != nil {
			return err
		}
		rep.Loaded, rep.Rejected = 0, 0
	}
	return tc.Checkpoint("s2v.phase1.after_commit")
}

// encodeRows streams the partition's rows in the configured task encoding:
// Avro object-container blocks (§3.2.2) or CSV lines (the encoding
// ablation). The Avro blocks go raw: a deflated stream costs its task the
// deflate and its COPY the inflate, both in the stream's own time, and
// measured end to end over loopback TCP that is more than the saved bytes are
// worth, for D1's floats and for text alike (DESIGN.md, "Why S2V sends Avro
// raw").
func (w *s2vWriter) encodeRows(cs *client.CopyStream, rows []types.Row) error {
	if w.opts.CopyFormat == "csv" {
		for _, r := range rows {
			if _, err := cs.Write([]byte(types.FormatCSV(r, ',') + "\n")); err != nil {
				return err
			}
		}
		return nil
	}
	aw, err := avro.NewWriter(cs, avro.FromTypes(w.schema), avro.CodecNull, 4096)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := aw.Append(r); err != nil {
			return err
		}
	}
	return aw.Close()
}

// markFailed best-effort records a failed job in the permanent status table.
func (w *s2vWriter) markFailed(ctx context.Context, conn client.Conn) {
	_, _ = conn.Execute(ctx, fmt.Sprintf(
		"UPDATE %s SET finished = TRUE, status = 'FAILED' WHERE job_name = '%s' AND finished = FALSE",
		JobStatusTable, types.SQLEscape(w.opts.JobName)))
}

// dropTemp removes the bookkeeping tables; withStaging also removes the
// staging table (it is gone already after a successful overwrite rename).
func (w *s2vWriter) dropTemp(ctx context.Context, conn client.Conn, withStaging bool) {
	stmts := []string{
		fmt.Sprintf("DROP TABLE IF EXISTS %s", w.status),
		fmt.Sprintf("DROP TABLE IF EXISTS %s", w.committer),
	}
	if withStaging || w.mode == spark.SaveAppend {
		stmts = append(stmts, fmt.Sprintf("DROP TABLE IF EXISTS %s", w.staging))
	}
	for _, s := range stmts {
		_, _ = conn.Execute(ctx, s)
	}
}

// sanitizeIdent keeps job-derived table names to identifier characters.
func sanitizeIdent(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
