package vertica

import (
	"time"

	"vsfabric/internal/obs"
)

// This file is the query-event raise funnel: typed engine events
// (obs.QueryEventType) raised from the planner, executors, pool admission,
// and WAL layers flow through one path into the collector's ring (backing
// v_monitor.query_events), the statement's PROFILE output, and the durable
// data collector.

// defaultJoinBuildRows is the JOIN_BUILD_SIDE_LARGE threshold when
// Config.JoinBuildRows is 0: a hash-join build side over 64K rows is past
// the point where build-side choice dominates join cost.
const defaultJoinBuildRows = 1 << 16

// defaultWALFsyncStall is the WAL_FSYNC_STALL threshold when
// Config.WALFsyncStall is 0: a commit fsync taking 50ms is an order of
// magnitude past a healthy local disk.
const defaultWALFsyncStall = 50 * time.Millisecond

// raiseEvent raises a typed query event from the current statement: it is
// appended to the statement's event list (surfaced inline by PROFILE) and
// recorded cluster-wide. Monitoring reads never raise events — the system
// tables must not observe themselves.
func (s *Session) raiseEvent(t obs.QueryEventType, detail string, value, threshold int64) {
	if s.sysStmt || !s.cluster.mon.Enabled() {
		return
	}
	ev := obs.QueryEvent{
		Time:      time.Now(),
		Type:      t,
		Node:      s.node.Name,
		TraceID:   s.curTrace,
		Query:     s.curSQL,
		Detail:    detail,
		Value:     value,
		Threshold: threshold,
	}
	s.stmtEvents = append(s.stmtEvents, ev)
	s.cluster.raiseQueryEvent(ev)
}

// raiseQueryEvent records a query event cluster-wide: the collector's ring
// and counters, then the durable data collector's query_events component.
// Engine-internal events (WAL fsync stalls) raise here directly with no
// session attached.
func (c *Cluster) raiseQueryEvent(ev obs.QueryEvent) {
	if !c.mon.Enabled() {
		return
	}
	c.mon.RecordQueryEvent(ev)
	c.dcAppendQueryEvent(ev)
}

// slowQueryThreshold resolves the SLOW_QUERY threshold: the session's SET
// SESSION SLOW_QUERY_THRESHOLD override wins, else the cluster config.
// 0 disables.
func (s *Session) slowQueryThreshold() time.Duration {
	if s.slowQuerySet {
		return s.slowQuery
	}
	return s.cluster.cfg.SlowQueryThreshold
}

// joinBuildThreshold resolves the JOIN_BUILD_SIDE_LARGE row threshold
// (<0 disables, 0 means the default).
func (s *Session) joinBuildThreshold() int64 {
	t := s.cluster.cfg.JoinBuildRows
	if t == 0 {
		return defaultJoinBuildRows
	}
	if t < 0 {
		return 0
	}
	return t
}

// walStallThreshold resolves the WAL_FSYNC_STALL duration threshold
// (<0 disables, 0 means the default).
func (c *Cluster) walStallThreshold() time.Duration {
	t := c.cfg.WALFsyncStall
	if t == 0 {
		return defaultWALFsyncStall
	}
	if t < 0 {
		return 0
	}
	return t
}

// raiseJoinBuildEvent raises JOIN_BUILD_SIDE_LARGE when a hash join built
// its table over more rows than the configured threshold.
func (s *Session) raiseJoinBuildEvent(buildRows int64, buildSide, leftCol, rightCol string) {
	thr := s.joinBuildThreshold()
	if thr <= 0 || buildRows < thr {
		return
	}
	s.raiseEvent(obs.EvJoinBuildSideLarge,
		"hash join "+leftCol+" = "+rightCol+", build "+buildSide+" side",
		buildRows, thr)
}
