package vertica

import (
	"fmt"
	"strings"
	"time"

	"vsfabric/internal/obs"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

// monitorTable synthesizes the observability half of v_monitor: the system
// tables backed by the cluster's span/event collector (query_requests,
// load_streams, resilience_events, counters) and the live projection storage
// statistics (projection_storage). Reads of these tables are themselves
// exempt from span recording (see startExecSpan), so monitoring a cluster
// does not perturb the history being monitored.
func (s *Session) monitorTable(name string, vis storage.Visibility) ([]types.Row, types.Schema, error) {
	switch name {
	case "v_monitor.query_requests":
		var rows []types.Row
		for _, sp := range s.cluster.mon.Spans() {
			if sp.Name == "execute" {
				rows = append(rows, queryRequestRow(sp))
			}
		}
		return rows, queryRequestsSchema, nil

	case "v_monitor.load_streams":
		schema := types.NewSchema(
			types.Column{Name: "stream_id", T: types.Int64},
			types.Column{Name: "table_name", T: types.Varchar},
			types.Column{Name: "node_name", T: types.Varchar},
			types.Column{Name: "client_name", T: types.Varchar},
			types.Column{Name: "accepted_row_count", T: types.Int64},
			types.Column{Name: "rejected_row_count", T: types.Int64},
			types.Column{Name: "input_bytes", T: types.Int64},
			types.Column{Name: "duration_us", T: types.Int64},
			types.Column{Name: "success", T: types.Bool},
			types.Column{Name: "error_message", T: types.Varchar},
		)
		var rows []types.Row
		for _, sp := range s.cluster.mon.Spans() {
			if sp.Name != "copy" {
				continue
			}
			rows = append(rows, types.Row{
				types.IntValue(int64(sp.ID)),
				types.StringValue(sp.Detail),
				types.StringValue(sp.Node),
				types.StringValue(sp.Peer),
				types.IntValue(sp.Rows),
				types.IntValue(sp.Rejected),
				types.IntValue(sp.Bytes),
				types.IntValue(sp.Duration.Microseconds()),
				types.BoolValue(sp.OK()),
				types.StringValue(sp.Err),
			})
		}
		return rows, schema, nil

	case "v_monitor.resilience_events", "v_monitor.query_events":
		comp := strings.TrimPrefix(name, "v_monitor.")
		var rows []types.Row
		for _, ev := range s.cluster.mon.Events() {
			if c, row := eventRecord(ev); c == comp {
				rows = append(rows, row)
			}
		}
		return rows, dcSchemas[comp], nil

	case "v_monitor.counters":
		schema := types.NewSchema(
			types.Column{Name: "counter_name", T: types.Varchar},
			types.Column{Name: "counter_value", T: types.Int64},
		)
		var rows []types.Row
		for _, ctr := range s.cluster.mon.SortedCounters() {
			rows = append(rows, types.Row{
				types.StringValue(ctr.Name),
				types.IntValue(ctr.Value),
			})
		}
		return rows, schema, nil

	case "v_monitor.resource_pools":
		return resourcePoolRows(s.cluster.pools)

	case "v_monitor.resource_queue_events":
		s.cluster.queueMu.Lock()
		evs := s.cluster.queue.Snapshot()
		s.cluster.queueMu.Unlock()
		var rows []types.Row
		for _, ev := range evs {
			rows = append(rows, ev.row())
		}
		return rows, queueEventsSchema, nil

	case "v_monitor.job_traces":
		return jobTraces(s.cluster.mon)

	case "v_monitor.latency_histograms":
		return latencyHistograms(s.cluster.mon)

	case "v_monitor.projection_storage":
		schema := types.NewSchema(
			types.Column{Name: "projection_name", T: types.Varchar},
			types.Column{Name: "anchor_table_name", T: types.Varchar},
			types.Column{Name: "node_id", T: types.Int64},
			types.Column{Name: "node_name", T: types.Varchar},
			types.Column{Name: "projection_role", T: types.Varchar},
			types.Column{Name: "ros_containers", T: types.Int64},
			types.Column{Name: "visible_rows", T: types.Int64},
			types.Column{Name: "data_bytes", T: types.Int64},
		)
		var rows []types.Row
		addStore := func(t string, node int, role string, st *storage.Store) {
			rows = append(rows, types.Row{
				types.StringValue(fmt.Sprintf("%s_%s_node%04d", t, role, node)),
				types.StringValue(t),
				types.IntValue(int64(node)),
				types.StringValue(s.cluster.node(node).Name),
				types.StringValue(role),
				types.IntValue(int64(st.ContainerCount())),
				types.IntValue(int64(st.RowCount(vis))),
				types.IntValue(int64(st.DataBytes())),
			})
		}
		for _, t := range s.cluster.cat.Tables() {
			for i, st := range t.Stores {
				addStore(t.Def.Name, t.Ring[i], "super", st)
			}
			for r, reps := range t.Buddies {
				for i, st := range reps {
					addStore(t.Def.Name, t.Ring[i], fmt.Sprintf("buddy%d", r+1), st)
				}
			}
		}
		return rows, schema, nil

	case "v_monitor.node_states":
		schema := types.NewSchema(
			types.Column{Name: "node_id", T: types.Int64},
			types.Column{Name: "node_name", T: types.Varchar},
			types.Column{Name: "node_address", T: types.Varchar},
			types.Column{Name: "node_state", T: types.Varchar},
			types.Column{Name: "recovery_epoch", T: types.Int64},
			types.Column{Name: "open_sessions", T: types.Int64},
		)
		var rows []types.Row
		for _, n := range s.cluster.nodeList() {
			rows = append(rows, types.Row{
				types.IntValue(int64(n.ID)),
				types.StringValue(n.Name),
				types.StringValue(n.Addr),
				types.StringValue(n.State().String()),
				types.IntValue(int64(n.RecoveryEpoch())),
				types.IntValue(int64(s.cluster.OpenSessions(n.ID))),
			})
		}
		return rows, schema, nil

	case "v_monitor.query_plans":
		var rows []types.Row
		for _, p := range s.cluster.plans.snapshot() {
			rows = append(rows, p.row())
		}
		return rows, queryPlansSchema, nil

	case "v_monitor.data_collector":
		return s.cluster.dataCollectorRows()

	case "v_monitor.rebalance_operations":
		schema := types.NewSchema(
			types.Column{Name: "operation_id", T: types.Int64},
			types.Column{Name: "operation_type", T: types.Varchar},
			types.Column{Name: "table_name", T: types.Varchar},
			types.Column{Name: "node_id", T: types.Int64},
			types.Column{Name: "status", T: types.Varchar},
			types.Column{Name: "rows_placed", T: types.Int64},
			types.Column{Name: "rows_moved", T: types.Int64},
			types.Column{Name: "containers", T: types.Int64},
			types.Column{Name: "start_epoch", T: types.Int64},
			types.Column{Name: "end_epoch", T: types.Int64},
			types.Column{Name: "error_message", T: types.Varchar},
		)
		var rows []types.Row
		for _, op := range s.cluster.reb.snapshot() {
			rows = append(rows, types.Row{
				types.IntValue(int64(op.ID)),
				types.StringValue(op.Kind),
				types.StringValue(op.Table),
				types.IntValue(int64(op.Node)),
				types.StringValue(op.Status),
				types.IntValue(int64(op.Rows)),
				types.IntValue(int64(op.RowsMoved)),
				types.IntValue(int64(op.Containers)),
				types.IntValue(int64(op.StartEpoch)),
				types.IntValue(int64(op.EndEpoch)),
				types.StringValue(op.Err),
			})
		}
		return rows, schema, nil

	default:
		// v_monitor.dc_<component> reads the durable data-collector spool:
		// the on-disk history that survives restarts, unlike the in-memory
		// rings every other v_monitor table draws from.
		if comp, ok := strings.CutPrefix(name, "v_monitor.dc_"); ok {
			return s.cluster.dcTableRows(comp)
		}
		return nil, types.Schema{}, fmt.Errorf("vertica: unknown system table %q", name)
	}
}

// Five monitoring relations exist three times over — the in-memory ring
// table v_monitor.X, the data-collector tap that spools each record, and the
// durable v_monitor.dc_X — and are defined once: one schema and one row
// builder each, here (query_requests, resilience_events, query_events), in
// pools.go (resource_queue_events) and in plans.go (query_plans).

var queryRequestsSchema = types.NewSchema(
	types.Column{Name: "request_id", T: types.Int64},
	types.Column{Name: "node_name", T: types.Varchar},
	types.Column{Name: "client_name", T: types.Varchar},
	types.Column{Name: "request", T: types.Varchar},
	types.Column{Name: "start_timestamp", T: types.Varchar},
	types.Column{Name: "request_duration_us", T: types.Int64},
	types.Column{Name: "result_rows", T: types.Int64},
	types.Column{Name: "success", T: types.Bool},
	types.Column{Name: "error_message", T: types.Varchar},
)

// queryRequestRow renders one completed "execute" span.
func queryRequestRow(sp obs.Span) types.Row {
	return types.Row{
		types.IntValue(int64(sp.ID)),
		types.StringValue(sp.Node),
		types.StringValue(sp.Peer),
		types.StringValue(sp.Detail),
		types.StringValue(sp.Start.Format(time.RFC3339Nano)),
		types.IntValue(sp.Duration.Microseconds()),
		types.IntValue(sp.Rows),
		types.BoolValue(sp.OK()),
		types.StringValue(sp.Err),
	}
}

var resilienceEventsSchema = types.NewSchema(
	types.Column{Name: "event_time", T: types.Varchar},
	types.Column{Name: "event_type", T: types.Varchar},
	types.Column{Name: "node_address", T: types.Varchar},
	types.Column{Name: "detail", T: types.Varchar},
)

// eventRecord routes an event to its relation and renders its row: the
// query-event taxonomy (obs.IsQueryEvent) to query_events, every other event —
// the connector's retries, backoffs, breaker transitions and failovers — to
// resilience_events. The ring tables and the data collector's event tap both
// split the collector's one event ring here.
func eventRecord(ev obs.Event) (comp string, row types.Row) {
	if obs.IsQueryEvent(ev.Name) {
		return dcQueryEventComp, queryEventRow(ev)
	}
	return dcResilience, resilienceEventRow(ev)
}

func resilienceEventRow(ev obs.Event) types.Row {
	return types.Row{
		types.StringValue(ev.Time.Format(time.RFC3339Nano)),
		types.StringValue(ev.Name),
		types.StringValue(ev.Node),
		types.StringValue(ev.Detail),
	}
}

var queryEventsSchema = types.NewSchema(
	types.Column{Name: "event_time", T: types.Varchar},
	types.Column{Name: "event_type", T: types.Varchar},
	types.Column{Name: "node_name", T: types.Varchar},
	types.Column{Name: "trace_id", T: types.Varchar},
	types.Column{Name: "query", T: types.Varchar},
	types.Column{Name: "detail", T: types.Varchar},
	types.Column{Name: "value", T: types.Int64},
	types.Column{Name: "threshold", T: types.Int64},
)

func queryEventRow(ev obs.Event) types.Row {
	return types.Row{
		types.StringValue(ev.Time.Format(time.RFC3339Nano)),
		types.StringValue(ev.Name),
		types.StringValue(ev.Node),
		types.StringValue(fmt.Sprintf("%016x", ev.TraceID)),
		types.StringValue(ev.Query),
		types.StringValue(ev.Detail),
		types.IntValue(ev.Value),
		types.IntValue(ev.Threshold),
	}
}

// jobTraces rolls every retained distributed trace up to one row per root
// job span (v2s.job / s2v.job) — the Data-Collector-style view a DBA queries
// to see what each connector job did across the whole fabric. Unlike the five
// relations above, job_traces keeps a second definition in dc.go: this ring
// table is a roll-up over a whole trace, the spooled dc_job_traces record is
// the root span alone, written when it closes. The DB-side
// columns (db_rows/db_bytes/rejected_rows) sum only engine execute/copy
// spans, so connector-layer spans wrapping the same work are not counted
// twice.
func jobTraces(mon *obs.Collector) ([]types.Row, types.Schema, error) {
	schema := types.NewSchema(
		types.Column{Name: "trace_id", T: types.Varchar},
		types.Column{Name: "job_type", T: types.Varchar},
		types.Column{Name: "job_name", T: types.Varchar},
		types.Column{Name: "start_timestamp", T: types.Varchar},
		types.Column{Name: "duration_us", T: types.Int64},
		types.Column{Name: "span_count", T: types.Int64},
		types.Column{Name: "node_count", T: types.Int64},
		types.Column{Name: "phase_count", T: types.Int64},
		types.Column{Name: "db_rows", T: types.Int64},
		types.Column{Name: "db_bytes", T: types.Int64},
		types.Column{Name: "rejected_rows", T: types.Int64},
		types.Column{Name: "error_count", T: types.Int64},
		types.Column{Name: "success", T: types.Bool},
	)
	spans := mon.Spans()
	byTrace := make(map[uint64][]obs.Span)
	for _, sp := range spans {
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
	}
	var rows []types.Row
	for _, root := range spans {
		if !root.Root() || !strings.HasSuffix(root.Name, ".job") {
			continue
		}
		trace := byTrace[root.TraceID]
		nodes := make(map[string]bool)
		var phases, dbRows, dbBytes, rejected, errs int64
		end := root.Start.Add(root.Duration)
		for _, sp := range trace {
			if sp.Node != "" {
				nodes[sp.Node] = true
			}
			if strings.HasPrefix(sp.Name, "s2v.phase") || sp.Name == "s2v.setup" || sp.Name == "v2s.partition" {
				phases++
			}
			if sp.Name == "execute" || sp.Name == "copy" {
				dbRows += sp.Rows
				dbBytes += sp.Bytes
				rejected += sp.Rejected
			}
			if !sp.OK() {
				errs++
			}
			// The root v2s.job span closes at planning time while its tasks
			// are still running, so the job's end-to-end duration is the
			// extent of the whole trace, not the root span alone.
			if e := sp.Start.Add(sp.Duration); e.After(end) {
				end = e
			}
		}
		rows = append(rows, types.Row{
			types.StringValue(fmt.Sprintf("%016x", root.TraceID)),
			types.StringValue(root.Name),
			types.StringValue(root.Detail),
			types.StringValue(root.Start.Format(time.RFC3339Nano)),
			types.IntValue(end.Sub(root.Start).Microseconds()),
			types.IntValue(int64(len(trace))),
			types.IntValue(int64(len(nodes))),
			types.IntValue(phases),
			types.IntValue(dbRows),
			types.IntValue(dbBytes),
			types.IntValue(rejected),
			types.IntValue(errs),
			types.BoolValue(errs == 0 && root.OK()),
		})
	}
	return rows, schema, nil
}

// latencyHistograms renders the collector's per-span-name log₂ latency
// distributions: sample counts, derived percentiles (as fractional
// microseconds — bucket midpoints, under-reporting by at most 25% and
// over-reporting by at most 50%), and the raw buckets as
// "upper_bound_ns:count" pairs.
func latencyHistograms(mon *obs.Collector) ([]types.Row, types.Schema, error) {
	schema := types.NewSchema(
		types.Column{Name: "operation", T: types.Varchar},
		types.Column{Name: "sample_count", T: types.Int64},
		types.Column{Name: "p50_us", T: types.Float64},
		types.Column{Name: "p95_us", T: types.Float64},
		types.Column{Name: "p99_us", T: types.Float64},
		types.Column{Name: "max_us", T: types.Float64},
		types.Column{Name: "buckets", T: types.Varchar},
	)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	var rows []types.Row
	for _, h := range mon.Histograms() {
		var b strings.Builder
		for i, bk := range h.Buckets {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d:%d", bk.UpperBound.Nanoseconds(), bk.Count)
		}
		rows = append(rows, types.Row{
			types.StringValue(h.Name),
			types.IntValue(h.Count),
			types.FloatValue(us(h.P50)),
			types.FloatValue(us(h.P95)),
			types.FloatValue(us(h.P99)),
			types.FloatValue(us(h.Max)),
			types.StringValue(b.String()),
		})
	}
	return rows, schema, nil
}
