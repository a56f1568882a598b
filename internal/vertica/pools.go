package vertica

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"vsfabric/internal/obs"
	"vsfabric/internal/pool"
	"vsfabric/internal/types"
	"vsfabric/internal/vsql"
)

// This file is the engine half of the resource manager: CREATE/ALTER/DROP
// RESOURCE POOL DDL, SET SESSION RESOURCE_POOL, per-statement admission in
// the execute and COPY paths, and the v_monitor.resource_pools /
// resource_queue_events system tables.

// Per-statement memory estimates. A real optimizer would cost the plan; a
// fixed per-kind estimate is enough to make MEMORYSIZE budgets meaningful
// (bulk loads reserve more than point queries).
const (
	selectMemEstimate = 1 << 20   // SELECT / PROFILE
	copyMemEstimate   = 4 << 20   // COPY bulk load
	dmlMemEstimate    = 256 << 10 // INSERT / UPDATE / DELETE
)

// poolDefaults are applied to CREATE RESOURCE POOL clauses left unset:
// queue up to 64 statements for up to 5 minutes, no memory or concurrency
// cap. (Vertica's general pool defaults similarly: queuetimeout 300s.)
func poolDefaults() pool.Config {
	return pool.Config{MaxQueueDepth: 64, QueueTimeout: 5 * time.Minute}
}

// applyPoolParams overlays the clauses present in st onto cfg.
func applyPoolParams(cfg pool.Config, p vsql.PoolParams) pool.Config {
	if p.MemoryBytes != nil {
		cfg.MemoryBytes = *p.MemoryBytes
	}
	if p.MaxConcurrency != nil {
		cfg.MaxConcurrency = *p.MaxConcurrency
	}
	if p.MaxQueueDepth != nil {
		cfg.MaxQueueDepth = *p.MaxQueueDepth
	}
	if p.QueueTimeout != nil {
		cfg.QueueTimeout = *p.QueueTimeout
	}
	return cfg
}

func (s *Session) executeCreatePool(st *vsql.CreateResourcePool) (*Result, error) {
	cfg := applyPoolParams(poolDefaults(), st.Params)
	res, err := s.cluster.runDDL(opCreatePool, ddlPayload{Name: st.Name, Pool: &cfg}, true)
	if st.IfNotExists && errors.Is(err, pool.ErrExists) {
		return &Result{}, nil
	}
	return res, err
}

func (s *Session) executeAlterPool(st *vsql.AlterResourcePool) (*Result, error) {
	p, err := s.cluster.pools.Get(st.Name)
	if err != nil {
		return nil, fmt.Errorf("vertica: %w: %s", err, st.Name)
	}
	// Log the resulting full config, not the delta: replay is a plain upsert.
	cfg := applyPoolParams(p.Snapshot().Cfg, st.Params)
	return s.cluster.runDDL(opAlterPool, ddlPayload{Name: st.Name, Pool: &cfg}, true)
}

func (s *Session) executeDropPool(st *vsql.DropResourcePool) (*Result, error) {
	return s.cluster.runDDL(opDropPool, ddlPayload{Name: st.Name}, !st.IfExists)
}

// executeSet handles SET [SESSION] <param> = <value>: RESOURCE_POOL routes
// admission, SLOW_QUERY_THRESHOLD sets the session's SLOW_QUERY event
// threshold to a non-negative duration ('0' turns the event off).
func (s *Session) executeSet(st *vsql.Set) (*Result, error) {
	switch strings.ToUpper(st.Name) {
	case "RESOURCE_POOL":
		if _, err := s.cluster.pools.Get(st.Value); err != nil {
			return nil, fmt.Errorf("vertica: %w: %s", err, st.Value)
		}
		s.poolName = st.Value
		return &Result{}, nil
	case "SLOW_QUERY_THRESHOLD":
		d, err := time.ParseDuration(st.Value)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("vertica: bad SLOW_QUERY_THRESHOLD %q: want a non-negative duration such as '250ms'", st.Value)
		}
		s.slowQuery = d
		return &Result{}, nil
	default:
		return nil, fmt.Errorf("vertica: unknown session parameter %q", st.Name)
	}
}

// admitStmt runs admission control for one statement and returns the release
// func (nil for exempt statements). Exempt: monitoring reads (they must work
// on a saturated cluster — that is their point), EXPLAIN (plans, never
// executes), DDL, transaction control, and SET.
func (s *Session) admitStmt(ctx context.Context, stmt vsql.Statement) (func(), error) {
	var kind string
	var mem int64
	switch stmt.(type) {
	case *vsql.Select, *vsql.Profile:
		if s.sysStmt {
			return nil, nil
		}
		kind, mem = "select", selectMemEstimate
	case *vsql.Insert, *vsql.Update, *vsql.Delete:
		kind, mem = "dml", dmlMemEstimate
	case *vsql.Copy:
		kind, mem = "copy", copyMemEstimate
	default:
		return nil, nil
	}
	return s.admit(ctx, kind, mem)
}

// admit asks the session's pool for a slot, falling back to the general pool
// if the SET target was dropped since. The pool decides; the session records:
// every outcome bumps pool.* counters, one that waited or was refused becomes
// a resource_queue_events record, and a queued admission is also surfaced as
// a synthetic "pool.queue" span (feeding the latency histograms and the trace
// tree) and a POOL_QUEUE_WAIT event. Refusals map to the typed pool sentinels
// that cross the wire as retryable conditions.
func (s *Session) admit(ctx context.Context, kind string, mem int64) (func(), error) {
	p, err := s.cluster.pools.Get(s.poolName)
	if err != nil {
		p = s.cluster.pools.General()
	}
	start := time.Now()
	release, res, err := p.Admit(ctx, mem)
	outcome := "queued"
	switch {
	case err == pool.ErrQueueTimeout:
		s.cluster.mon.Add("pool.timeouts", 1)
		outcome = "timeout"
	case err == pool.ErrRejected:
		s.cluster.mon.Add("pool.rejections", 1)
		outcome = "rejected"
	case err != nil:
		outcome = "canceled"
	}
	if err != nil || res.Queued {
		s.cluster.recordQueueEvent(queueEvent{
			Time: time.Now(), Pool: p.Name(), Outcome: outcome, Wait: res.Waited, Request: kind,
		})
	}
	if err != nil {
		return nil, fmt.Errorf("vertica: pool %s: %w", p.Name(), err)
	}
	s.cluster.mon.Add("pool.admitted", 1)
	if res.Queued {
		s.cluster.mon.Add("pool.queued", 1)
		s.raiseEvent(obs.EvPoolQueueWait, "pool "+p.Name()+" admission queue ("+kind+")",
			res.Waited.Microseconds(), 0)
		sp := obs.Span{
			Name: "pool.queue", Node: s.node.Name, Peer: s.peer,
			Detail: p.Name() + ":" + kind,
			Start:  start, Duration: res.Waited,
			SpanID: obs.NewID(),
		}
		if sc := obs.SpanContextFrom(ctx); sc.TraceID != 0 {
			sp.TraceID, sp.ParentID = sc.TraceID, sc.SpanID
		} else {
			sp.TraceID = sp.SpanID
		}
		s.cluster.mon.SpanEnd(sp)
	}
	return release, nil
}

// resourcePoolRows renders v_monitor.resource_pools.
func resourcePoolRows(m *pool.Manager) ([]types.Row, types.Schema, error) {
	schema := types.NewSchema(
		types.Column{Name: "pool_name", T: types.Varchar},
		types.Column{Name: "memory_size_bytes", T: types.Int64},
		types.Column{Name: "max_concurrency", T: types.Int64},
		types.Column{Name: "max_queue_depth", T: types.Int64},
		types.Column{Name: "queue_timeout_ms", T: types.Int64},
		types.Column{Name: "running_count", T: types.Int64},
		types.Column{Name: "memory_inuse_bytes", T: types.Int64},
		types.Column{Name: "queue_length", T: types.Int64},
		types.Column{Name: "admitted_count", T: types.Int64},
		types.Column{Name: "queued_count", T: types.Int64},
		types.Column{Name: "timeout_count", T: types.Int64},
		types.Column{Name: "rejected_count", T: types.Int64},
	)
	var rows []types.Row
	for _, st := range m.List() {
		rows = append(rows, types.Row{
			types.StringValue(st.Name),
			types.IntValue(st.Cfg.MemoryBytes),
			types.IntValue(int64(st.Cfg.MaxConcurrency)),
			types.IntValue(int64(st.Cfg.MaxQueueDepth)),
			types.IntValue(st.Cfg.QueueTimeout.Milliseconds()),
			types.IntValue(int64(st.Running)),
			types.IntValue(st.MemInUse),
			types.IntValue(int64(st.QueueLen)),
			types.IntValue(int64(st.Admitted)),
			types.IntValue(int64(st.Queued)),
			types.IntValue(int64(st.Timeouts)),
			types.IntValue(int64(st.Rejections)),
		})
	}
	return rows, schema, nil
}

// queueEvent is one admission that waited or was refused; admissions granted
// at once are counted, not recorded.
type queueEvent struct {
	Time    time.Time
	Pool    string
	Outcome string // "queued" | "timeout" | "rejected" | "canceled"
	Wait    time.Duration
	Request string // statement kind: "select", "dml" or "copy"
}

// queueHistory bounds the admission records kept in memory: the oldest age
// out first.
const queueHistory = 512

// recordQueueEvent files an admission record for
// v_monitor.resource_queue_events and spools it to the data collector.
func (c *Cluster) recordQueueEvent(ev queueEvent) {
	c.queueMu.Lock()
	c.queue.Add(ev)
	c.queueMu.Unlock()
	c.dcAppend(dcQueueEvents, ev.Time, ev.row())
}

// queueEventsSchema and queueEvent.row define v_monitor.resource_queue_events
// and its spooled dc twin.
var queueEventsSchema = types.NewSchema(
	types.Column{Name: "event_time", T: types.Varchar},
	types.Column{Name: "pool_name", T: types.Varchar},
	types.Column{Name: "outcome", T: types.Varchar},
	types.Column{Name: "queue_wait_us", T: types.Int64},
	types.Column{Name: "request_type", T: types.Varchar},
)

func (ev queueEvent) row() types.Row {
	return types.Row{
		types.StringValue(ev.Time.Format(time.RFC3339Nano)),
		types.StringValue(ev.Pool),
		types.StringValue(ev.Outcome),
		types.IntValue(ev.Wait.Microseconds()),
		types.StringValue(ev.Request),
	}
}
