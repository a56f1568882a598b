package obs

import "slices"

// The query-event taxonomy: engine-raised events that explain *why* a
// statement behaved the way it did (built a large join table, waited for
// admission, crossed a latency threshold). Each name is raised from exactly
// one engine layer as an Event whose Detail carries the specifics. The set is
// closed, which is what lets v_monitor.query_events, PROFILE output and the
// data collector agree on meaning without parsing free-form strings.
const (
	// EvPoolQueueWait: a statement waited in its resource pool's admission
	// queue before running. Value is the wait in microseconds.
	EvPoolQueueWait = "POOL_QUEUE_WAIT"
	// EvJoinBuildSideLarge: a hash join built its table over more rows than
	// the threshold — the planner picked (or was forced into) an expensive
	// build side. Value is the build side's row count.
	EvJoinBuildSideLarge = "JOIN_BUILD_SIDE_LARGE"
	// EvWALFsyncStall: one WAL fsync took longer than the stall threshold.
	// Value is the fsync duration in microseconds.
	EvWALFsyncStall = "WAL_FSYNC_STALL"
	// EvSlowQuery: a statement ran longer than its session's slow-query
	// threshold. Value is the duration in microseconds.
	EvSlowQuery = "SLOW_QUERY"
)

// QueryEventNames lists the query-event taxonomy.
var QueryEventNames = []string{EvPoolQueueWait, EvJoinBuildSideLarge, EvWALFsyncStall, EvSlowQuery}

// IsQueryEvent reports whether name is in the query-event taxonomy — the one
// predicate that splits the collector's event ring (and the data collector's
// event tap) into query events and resilience events.
func IsQueryEvent(name string) bool { return slices.Contains(QueryEventNames, name) }
