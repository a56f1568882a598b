package vertica

import (
	"time"

	"vsfabric/internal/obs"
)

// This file is the query-event raise funnel: typed engine events (the
// obs.IsQueryEvent taxonomy) raised from the planner, executors, pool
// admission, and WAL layers are obs.Events recorded through the collector's
// one entry like every other event — its ring backs v_monitor.query_events,
// its event tap spools them to the data collector — and a statement's own
// events also annotate its PROFILE output.

// joinBuildRows is the JOIN_BUILD_SIDE_LARGE threshold: a hash-join build
// side over 64K rows is past the point where build-side choice dominates join
// cost. In-package tests lower it.
var joinBuildRows int64 = 1 << 16

// walFsyncStall is the WAL_FSYNC_STALL threshold: a commit fsync taking 50ms
// is an order of magnitude past a healthy local disk. In-package tests lower
// it.
var walFsyncStall = 50 * time.Millisecond

// raiseEvent raises a typed query event from the current statement: it is
// appended to the statement's event list (surfaced inline by PROFILE) and
// recorded cluster-wide. Monitoring reads never raise events — the system
// tables must not observe themselves.
func (s *Session) raiseEvent(name, detail string, value, threshold int64) {
	if s.sysStmt || !s.cluster.mon.Enabled() {
		return
	}
	ev := obs.Event{
		Name:      name,
		Node:      s.node.Name,
		TraceID:   s.curTrace,
		Query:     s.curSQL,
		Detail:    detail,
		Value:     value,
		Threshold: threshold,
	}
	s.stmtEvents = append(s.stmtEvents, ev)
	s.cluster.mon.Event(ev)
}

// raiseJoinBuildEvent raises JOIN_BUILD_SIDE_LARGE when a hash join built
// its table over at least joinBuildRows rows.
func (s *Session) raiseJoinBuildEvent(buildRows int64, buildSide, leftCol, rightCol string) {
	if buildRows < joinBuildRows {
		return
	}
	s.raiseEvent(obs.EvJoinBuildSideLarge,
		"hash join "+leftCol+" = "+rightCol+", build "+buildSide+" side",
		buildRows, joinBuildRows)
}
