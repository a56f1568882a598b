package vertica

import (
	"context"
	"fmt"
	"io"
	"time"

	"vsfabric/internal/obs"
	"vsfabric/internal/sim"
	"vsfabric/internal/storage"
	"vsfabric/internal/txn"
	"vsfabric/internal/types"
	"vsfabric/internal/vsql"
)

// Result is the outcome of one statement.
type Result struct {
	Schema types.Schema
	// Batches is the result set as the engine produces it, and as
	// ExecuteColumnar returns it: column batches of the schema's types, a
	// scan's aliasing the containers' immutable vectors, each with a private
	// selection vector that fixes the snapshot and the row order. Nil for a
	// result set of no rows.
	Batches []*storage.Batch
	// Rows is the result set in row form. Only Materialize fills it, at the
	// row API's edge: Execute, ExecuteContext and client.Conn return it set
	// and Batches nil.
	Rows         []types.Row
	RowsAffected int64
	// Epoch is the snapshot epoch a SELECT read at, or the commit epoch of a
	// committed write. V2S uses the former to pin all partition queries to
	// one consistent snapshot (§3.1.2).
	Epoch uint64
	// Copy carries bulk-load statistics when the statement was a COPY.
	Copy *CopyResult
}

// NumRows returns the size of a result set not yet materialized.
func (r *Result) NumRows() int { return storage.SelectedRows(r.Batches) }

// Materialize boxes the result set into Rows — the one boxing a result
// undergoes in this process — and returns r (nil for nil).
func (r *Result) Materialize() *Result {
	if r != nil && r.Batches != nil {
		r.Rows, r.Batches = storage.Materialize(r.Batches), nil
	}
	return r
}

// Value returns the single value of a one-row, one-column result.
func (r *Result) Value() (types.Value, error) {
	if len(r.Rows) != 1 || len(r.Rows[0]) != 1 {
		return types.Value{}, fmt.Errorf("vertica: result is %d rows × %d cols, want 1×1", len(r.Rows), len(r.Schema.Cols))
	}
	return r.Rows[0][0], nil
}

// CopyResult reports bulk-load statistics.
type CopyResult struct {
	Loaded   int64
	Rejected int64
	// RejectedSample holds up to 10 rejected input records with reasons,
	// mirroring the connector API's rejected-row sample (§3.2).
	RejectedSample []string
}

// Session is one client connection to one node. A session is used by a
// single goroutine at a time, like a JDBC connection.
type Session struct {
	cluster *Cluster
	node    *Node
	tx      *txn.Txn // open explicit transaction, nil in autocommit

	// rec is the current statement's simulator task record (sim.TaskFrom of
	// its context; nil when untraced, and then no accounting is done); peer
	// names the connecting client's host in the simulated topology (e.g.
	// "s3"); curSQL is the statement's source text for v_monitor.query_plans.
	// All are reset per statement.
	rec    *sim.TaskRec
	peer   string
	curSQL string
	// copyLocal marks the current COPY as reading a node-local file, so its
	// resource event charges the node's disk instead of the network.
	copyLocal bool

	// pinRelease releases the session's explicit epoch pins (PinEpoch) on
	// UnpinEpochs or Close.
	pinRelease []func()

	// poolName is the resource pool statements are admitted through,
	// changed by SET SESSION RESOURCE_POOL. Empty means the general pool.
	poolName string

	// Query-event state, reset per statement: sysStmt marks monitoring reads
	// (they raise no events, take no pool slot, open no execute span and are
	// served by a RECOVERING node), curTrace is the statement's trace id, and
	// stmtEvents accumulates the typed events the statement raised (PROFILE
	// renders them inline).
	sysStmt    bool
	curTrace   uint64
	stmtEvents []obs.Event

	// slowQuery is the session's SLOW_QUERY threshold (SET SESSION
	// SLOW_QUERY_THRESHOLD; 0, the default, raises none).
	slowQuery time.Duration

	closed bool
}

// Node returns the node this session is connected to.
func (s *Session) Node() *Node { return s.node }

// Close releases the session, aborting any open transaction and dropping
// its epoch pins.
func (s *Session) Close() {
	if s.closed {
		return
	}
	if s.tx != nil {
		s.tx.Abort()
		s.tx = nil
	}
	s.UnpinEpochs()
	s.cluster.releaseSession(s.node.ID)
	s.closed = true
}

// PinEpoch pins an epoch for the session's lifetime: until UnpinEpochs (or
// Close), the AHM stays at or below it, so no purge removes rows still
// visible at that epoch.
// A connector job that spreads AT EPOCH partition queries across many
// statements pins its snapshot once up front, guaranteeing every query sees
// the identical row set however many writes commit in between (§3.1.2).
func (s *Session) PinEpoch(epoch uint64) error {
	if s.closed {
		return fmt.Errorf("vertica: session is closed")
	}
	if epoch > s.cluster.txm.LastEpoch() {
		return fmt.Errorf("vertica: epoch %d has not closed yet (last epoch %d)", epoch, s.cluster.txm.LastEpoch())
	}
	s.pinRelease = append(s.pinRelease, s.cluster.txm.PinEpoch(epoch))
	return nil
}

// UnpinEpochs releases every epoch pinned via PinEpoch.
func (s *Session) UnpinEpochs() {
	for _, rel := range s.pinRelease {
		rel()
	}
	s.pinRelease = nil
}

// InTxn reports whether an explicit transaction is open.
func (s *Session) InTxn() bool { return s.tx != nil }

// Execute parses and runs one SQL statement under a background context.
func (s *Session) Execute(sql string) (*Result, error) {
	return s.ExecuteContext(context.Background(), sql)
}

// ExecuteContext parses and runs one SQL statement. The context carries
// cancellation, the client-host name (obs.WithPeer) and trace identity for
// the execute span, and, via sim.WithTask, the task record the performance
// layer's cost events go to.
func (s *Session) ExecuteContext(ctx context.Context, sql string) (*Result, error) {
	res, err := s.ExecuteColumnar(ctx, sql)
	return res.Materialize(), err
}

// ExecuteColumnar is ExecuteContext without the boxing: the result set comes
// back in Result.Batches. The wire server runs statements through here and
// encodes batch frames straight from the vectors.
func (s *Session) ExecuteColumnar(ctx context.Context, sql string) (*Result, error) {
	stmt, err := vsql.Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.executeStmtCtx(ctx, stmt, sql)
}

// MustExecute is Execute for setup code where failure is a bug.
func (s *Session) MustExecute(sql string) *Result {
	r, err := s.Execute(sql)
	if err != nil {
		panic(fmt.Sprintf("vertica: %v (sql: %s)", err, sql))
	}
	return r
}

// beginStmt is the prologue of every statement, COPY ... FROM STDIN's
// included: a closed session runs nothing, a cancelled context fails before
// any work, and the per-statement state is reset, binding the context's task
// record and peer to the session for the statement's duration.
func (s *Session) beginStmt(ctx context.Context, stmt vsql.Statement, sqlText string) error {
	if s.closed {
		return fmt.Errorf("vertica: session is closed")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.rec = sim.TaskFrom(ctx)
	s.peer = obs.Peer(ctx)
	s.curSQL = sqlText
	s.sysStmt = systemRead(stmt)
	s.curTrace = obs.SpanContextFrom(ctx).TraceID
	s.stmtEvents = nil
	return nil
}

// executeStmtCtx runs one statement: after beginStmt it opens the engine-side
// "execute" span feeding v_monitor.query_requests, and dispatches.
func (s *Session) executeStmtCtx(ctx context.Context, stmt vsql.Statement, sqlText string) (*Result, error) {
	if err := s.beginStmt(ctx, stmt, sqlText); err != nil {
		return nil, err
	}
	release, err := s.admitStmt(ctx, stmt)
	if err != nil {
		return nil, err
	}
	if release != nil {
		defer release()
	}
	sp := s.startExecSpan(ctx, stmt, sqlText)
	if sp != nil {
		s.curTrace = sp.SpanContext().TraceID
	}
	start := time.Now()
	res, err := s.dispatch(ctx, stmt)
	dur := time.Since(start)
	if sp != nil {
		if res != nil {
			rows := int64(res.NumRows())
			if rows == 0 {
				rows = res.RowsAffected
			}
			sp.AddRows(rows)
		}
		sp.End(err)
		if thr := s.slowQuery; thr > 0 && dur >= thr {
			s.raiseEvent(obs.EvSlowQuery, "statement exceeded slow-query threshold",
				dur.Microseconds(), thr.Microseconds())
		}
	}
	return res, err
}

// startExecSpan opens the query_requests span for a statement, parented
// under the context's active trace (a connector job phase, possibly on the
// far side of a TCP connection). Reads of the v_monitor / v_catalog virtual
// tables are exempt: monitoring queries must not pollute the history they
// observe.
func (s *Session) startExecSpan(ctx context.Context, stmt vsql.Statement, sqlText string) *obs.ActiveSpan {
	if s.sysStmt {
		return nil
	}
	sp := obs.StartChild(ctx, s.cluster.mon, "execute", s.node.Name)
	if sp == nil {
		return nil
	}
	sp.SetPeer(s.peer)
	if sqlText == "" {
		sqlText = fmt.Sprintf("%T", stmt)
	}
	sp.SetDetail(sqlText)
	return sp
}

// systemRead reports whether stmt is a SELECT, or the PROFILE of one, over a
// system table.
func systemRead(stmt vsql.Statement) bool {
	sel, _ := stmt.(*vsql.Select)
	if p, ok := stmt.(*vsql.Profile); ok {
		sel = p.Select
	}
	return sel != nil && sel.From != nil && isSystemRelation(sel.From.Name)
}

// dispatch routes a parsed statement to its executor.
func (s *Session) dispatch(ctx context.Context, stmt vsql.Statement) (*Result, error) {
	switch s.node.State() {
	case NodeDown:
		return nil, fmt.Errorf("%w: node %d went down", ErrNodeDown, s.node.ID)
	case NodeRemoved:
		return nil, fmt.Errorf("%w: node %d", ErrNodeRemoved, s.node.ID)
	case NodeRecovering:
		// A recovering node serves only monitoring reads (an operator watching
		// v_monitor.node_states through the node itself); everything else
		// waits for the catch-up to finish and reports as a transient
		// node-down condition so resilient clients fail over.
		if !s.sysStmt {
			return nil, fmt.Errorf("%w: node %d is recovering", ErrNodeDown, s.node.ID)
		}
	}
	switch st := stmt.(type) {
	case *vsql.Select:
		s.rec.Fixed(sim.FixedQuery)
		return s.executeSelect(ctx, st)
	case *vsql.Profile:
		s.rec.Fixed(sim.FixedQuery)
		return s.executeProfile(ctx, st)
	case *vsql.Explain:
		return s.executeExplain(st)
	case *vsql.Insert:
		s.rec.Fixed(sim.FixedQuery)
		return s.executeInsert(ctx, st)
	case *vsql.Update:
		s.rec.Fixed(sim.FixedQuery)
		return s.executeUpdate(ctx, st)
	case *vsql.Delete:
		s.rec.Fixed(sim.FixedQuery)
		return s.executeDelete(st)
	case *vsql.CreateTable:
		s.rec.Fixed(sim.FixedTableDDL)
		return s.executeCreateTable(st)
	case *vsql.DropTable:
		s.rec.Fixed(sim.FixedTableDDL)
		return s.executeDropTable(st)
	case *vsql.CreateView:
		s.rec.Fixed(sim.FixedTableDDL)
		return s.executeCreateView(st)
	case *vsql.DropView:
		s.rec.Fixed(sim.FixedTableDDL)
		return s.executeDropView(st)
	case *vsql.AlterRename:
		s.rec.Fixed(sim.FixedTableDDL)
		return s.executeRename(st)
	case *vsql.AlterCluster:
		s.rec.Fixed(sim.FixedTableDDL)
		return s.executeAlterCluster(st)
	case *vsql.CreateResourcePool:
		return s.executeCreatePool(st)
	case *vsql.AlterResourcePool:
		return s.executeAlterPool(st)
	case *vsql.DropResourcePool:
		return s.executeDropPool(st)
	case *vsql.Set:
		return s.executeSet(st)
	case *vsql.Begin:
		if s.tx != nil {
			return nil, fmt.Errorf("vertica: transaction already open")
		}
		s.tx = s.cluster.txm.Begin()
		return &Result{}, nil
	case *vsql.Commit:
		if s.tx == nil {
			return &Result{}, nil // COMMIT outside txn is a no-op
		}
		epoch, err := s.tx.Commit()
		s.tx = nil
		if err != nil {
			return nil, err
		}
		s.rec.Fixed(sim.FixedCommit)
		return &Result{Epoch: epoch}, nil
	case *vsql.Rollback:
		if s.tx != nil {
			s.tx.Abort()
			s.tx = nil
		}
		return &Result{}, nil
	case *vsql.Copy:
		if st.FromStdin {
			return nil, fmt.Errorf("vertica: COPY FROM STDIN requires CopyFrom with a data stream")
		}
		return s.executeCopyFile(ctx, st)
	default:
		return nil, fmt.Errorf("vertica: unsupported statement %T", stmt)
	}
}

// CopyFrom runs a COPY ... FROM STDIN statement, reading the encoded data
// from r. This is the engine half of the VerticaCopyStream API (§3.2.2).
func (s *Session) CopyFrom(sql string, r io.Reader) (*Result, error) {
	return s.CopyFromContext(context.Background(), sql, r)
}

// CopyFromContext is CopyFrom with cancellation: cancelling ctx mid-stream
// fails the load, and with it the load's transaction — an explicit txn is
// left for the caller's ROLLBACK, an autocommit load writes nothing.
func (s *Session) CopyFromContext(ctx context.Context, sql string, r io.Reader) (*Result, error) {
	stmt, err := vsql.Parse(sql)
	if err != nil {
		return nil, err
	}
	cp, ok := stmt.(*vsql.Copy)
	if !ok {
		return nil, fmt.Errorf("vertica: CopyFrom requires a COPY statement, got %T", stmt)
	}
	if !cp.FromStdin {
		return nil, fmt.Errorf("vertica: CopyFrom requires COPY ... FROM STDIN")
	}
	if err := s.beginStmt(ctx, cp, sql); err != nil {
		return nil, err
	}
	release, err := s.admit(ctx, "copy", copyMemEstimate)
	if err != nil {
		return nil, err
	}
	defer release()
	if ctx.Done() != nil {
		r = &ctxReader{ctx: ctx, r: r}
	}
	return s.executeCopyStream(ctx, cp, r)
}

// ctxReader fails the stream once its context is cancelled, so a COPY parse
// loop observes cancellation at its next read.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c *ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}

// writeStmt is the skeleton of every write statement (INSERT, INSERT ...
// SELECT, UPDATE, DELETE, COPY): body runs under the session's open
// transaction, or under a fresh autocommit one that is aborted when body
// fails and committed — stamping the result's epoch — when it succeeds.
func (s *Session) writeStmt(body func(tx *txn.Txn) (*Result, error)) (*Result, error) {
	tx, auto := s.tx, false
	if tx == nil {
		tx, auto = s.cluster.txm.Begin(), true
	}
	res, err := body(tx)
	if err != nil {
		if auto {
			tx.Abort()
		}
		return nil, err
	}
	if !auto {
		return res, nil
	}
	epoch, err := tx.Commit()
	if err != nil {
		return nil, err
	}
	res.Epoch = epoch
	s.cluster.maybeCheckpoint()
	return res, nil
}

// vis returns the read context for the current statement: the open
// transaction's view, or a fresh read-committed snapshot.
func (s *Session) vis() storage.Visibility {
	if s.tx != nil {
		return s.tx.Vis()
	}
	return snapshotVis(s.cluster)
}
