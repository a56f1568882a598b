package vertica

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"vsfabric/internal/dc"
	"vsfabric/internal/obs"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

// This file wires the durable data collector (internal/dc) into the engine:
// a durable cluster spools monitoring history — query requests, job traces,
// resilience events, resource-queue events, query plans, query events — to
// DataDir/dc as it happens, and serves it back through the v_monitor.dc_*
// tables after a restart. Spool failures never fail queries: they are
// swallowed into the "dc.errors" counter, because observability must not
// take the database down with it.

// Data-collector component names. Each owns a directory of rotating
// segments under DataDir/dc/<component>.
const (
	dcQueryRequests  = "query_requests"
	dcJobTraces      = "job_traces"
	dcResilience     = "resilience_events"
	dcQueueEvents    = "resource_queue_events"
	dcQueryPlans     = "query_plans"
	dcQueryEventComp = "query_events"
)

// dcComponents lists every component a cluster spools.
var dcComponents = []string{
	dcQueryRequests, dcJobTraces, dcResilience, dcQueueEvents, dcQueryPlans, dcQueryEventComp,
}

// dcSchemas maps each component to its row schema. Every spooled record is
// one row under this schema in the storage.DecodeColumns layout — written
// plain by storage.AppendBatches (earlier builds chose an encoding per column,
// which the decoder reads too) — so the dc_* tables decode records from any
// engine version that shares the column set.
var dcSchemas = map[string]types.Schema{
	dcQueryRequests: queryRequestsSchema,
	// The spooled job trace is the root job span alone; v_monitor.job_traces
	// (monitor.go) is a roll-up over the whole retained trace, so the two
	// keep separate definitions.
	dcJobTraces: types.NewSchema(
		types.Column{Name: "trace_id", T: types.Varchar},
		types.Column{Name: "job_type", T: types.Varchar},
		types.Column{Name: "job_name", T: types.Varchar},
		types.Column{Name: "start_timestamp", T: types.Varchar},
		types.Column{Name: "duration_us", T: types.Int64},
		types.Column{Name: "db_rows", T: types.Int64},
		types.Column{Name: "db_bytes", T: types.Int64},
		types.Column{Name: "success", T: types.Bool},
	),
	dcResilience:     resilienceEventsSchema,
	dcQueueEvents:    queueEventsSchema,
	dcQueryPlans:     queryPlansSchema,
	dcQueryEventComp: queryEventsSchema,
}

// openDC opens the durable data-collector spool under DataDir/dc and taps the
// collector's spans and events into it. Query plans and admission records are
// spooled by the engine where it records them. Called only for durable
// clusters.
func (c *Cluster) openDC() error {
	spool, err := dc.Open(filepath.Join(c.dataDir, "dc"), dcComponents)
	if err != nil {
		return err
	}
	c.dcs = spool
	c.mon.SetTap(c.dcSpan, c.dcEvent)
	return nil
}

// DataCollector exposes the durable data-collector spool (nil on in-memory
// clusters) for tests and tools; normal access goes through the
// v_monitor.dc_* tables and the policy UDxs.
func (c *Cluster) DataCollector() *dc.Spool { return c.dcs }

// dcAppend encodes one row under a component's schema, plain, and spools it.
// All failures (including a simulated crash) land in the dc.errors counter;
// the query that generated the row is never failed by its observability.
func (c *Cluster) dcAppend(comp string, t time.Time, row types.Row) {
	if c.dcs == nil {
		return
	}
	schema := dcSchemas[comp]
	batches, err := columnize([]types.Row{row}, schema)
	var payload []byte
	if err == nil {
		payload, err = storage.AppendBatches(nil, schema, batches)
	}
	if err == nil {
		err = c.dcs.Append(comp, dc.Record{Time: t, Payload: payload})
	}
	if err != nil {
		c.mon.Add("dc.errors", 1)
		return
	}
	c.mon.Add("dc.appends", 1)
}

// dcSpan is the collector's span tap: completed "execute" spans become
// query_requests records, root connector job spans become job_traces
// records.
func (c *Cluster) dcSpan(sp obs.Span) {
	switch {
	case sp.Name == "execute":
		c.dcAppend(dcQueryRequests, sp.Start, queryRequestRow(sp))
	case sp.Root() && strings.HasSuffix(sp.Name, ".job"):
		c.dcAppend(dcJobTraces, sp.Start, types.Row{
			types.StringValue(fmt.Sprintf("%016x", sp.TraceID)),
			types.StringValue(sp.Name),
			types.StringValue(sp.Detail),
			types.StringValue(sp.Start.Format(time.RFC3339Nano)),
			types.IntValue(sp.Duration.Microseconds()),
			types.IntValue(sp.Rows),
			types.IntValue(sp.Bytes),
			types.BoolValue(sp.OK()),
		})
	}
}

// dcEvent is the collector's event tap: query events become query_events
// records, the connector's retries, backoffs, breaker transitions and
// failovers resilience_events records (eventRecord).
func (c *Cluster) dcEvent(ev obs.Event) {
	comp, row := eventRecord(ev)
	c.dcAppend(comp, ev.Time, row)
}

// dcAppendPlan spools one completed SELECT's plan summary.
func (c *Cluster) dcAppendPlan(r planRecord) {
	c.dcAppend(dcQueryPlans, time.Now(), r.row())
}

// dcTableRows renders v_monitor.dc_<component>: every durably spooled
// record of the component, oldest first — including everything recorded by
// previous processes against the same DataDir. Records whose stored schema
// no longer decodes are skipped (counted in dc.decode_errors) rather than
// failing the read.
func (c *Cluster) dcTableRows(comp string) ([]types.Row, types.Schema, error) {
	schema, ok := dcSchemas[comp]
	if !ok {
		return nil, types.Schema{}, fmt.Errorf("vertica: unknown data collector component %q", comp)
	}
	if c.dcs == nil {
		return nil, types.Schema{}, fmt.Errorf("vertica: data collector requires a durable cluster (Config.DataDir)")
	}
	recs, err := c.dcs.Records(comp)
	if err != nil {
		return nil, types.Schema{}, err
	}
	var rows []types.Row
	for _, r := range recs {
		_, cols, n, derr := storage.DecodeColumns(r.Payload, 1)
		if derr != nil || n != 1 || len(cols) != len(schema.Cols) {
			c.mon.Add("dc.decode_errors", 1)
			continue
		}
		row := make(types.Row, len(cols))
		for j, col := range cols {
			row[j] = col.Get(0)
		}
		rows = append(rows, row)
	}
	return rows, schema, nil
}

// dataCollectorRows renders v_monitor.data_collector: one row per
// component with its on-disk footprint and retention policy.
func (c *Cluster) dataCollectorRows() ([]types.Row, types.Schema, error) {
	schema := types.NewSchema(
		types.Column{Name: "component", T: types.Varchar},
		types.Column{Name: "segments", T: types.Int64},
		types.Column{Name: "bytes_on_disk", T: types.Int64},
		types.Column{Name: "record_count", T: types.Int64},
		types.Column{Name: "first_time", T: types.Varchar},
		types.Column{Name: "last_time", T: types.Varchar},
		types.Column{Name: "policy_max_kb", T: types.Int64},
		types.Column{Name: "policy_max_age_ms", T: types.Int64},
	)
	if c.dcs == nil {
		return nil, schema, nil
	}
	fmtT := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.Format(time.RFC3339Nano)
	}
	var rows []types.Row
	for _, st := range c.dcs.Stats() {
		maxKB := st.Policy.MaxKB
		if maxKB <= 0 {
			maxKB = dc.DefaultMaxKB
		}
		rows = append(rows, types.Row{
			types.StringValue(st.Component),
			types.IntValue(int64(st.Segments)),
			types.IntValue(st.Bytes),
			types.IntValue(st.Records),
			types.StringValue(fmtT(st.Oldest)),
			types.StringValue(fmtT(st.Newest)),
			types.IntValue(maxKB),
			types.IntValue(st.Policy.MaxAge.Milliseconds()),
		})
	}
	return rows, schema, nil
}

// registerDCBuiltins installs the data-collector policy UDxs:
//
//	SELECT SET_DATA_COLLECTOR_POLICY('query_requests', 64, '1h');
//	SELECT GET_DATA_COLLECTOR_POLICY('query_requests');
//
// The second argument is the disk budget in KB, the third the max record
// age as a Go duration string (” = no age limit).
func (c *Cluster) registerDCBuiltins() {
	c.registerFunc("SET_DATA_COLLECTOR_POLICY", types.Varchar, func(args []types.Value, _ map[string]string) (types.Value, error) {
		if len(args) != 3 {
			return types.Value{}, fmt.Errorf("SET_DATA_COLLECTOR_POLICY takes (component, max_kb, max_age)")
		}
		if c.dcs == nil {
			return types.Value{}, fmt.Errorf("SET_DATA_COLLECTOR_POLICY requires a durable cluster (Config.DataDir)")
		}
		comp := args[0].S
		if args[1].T != types.Int64 {
			return types.Value{}, fmt.Errorf("SET_DATA_COLLECTOR_POLICY: max_kb must be an integer")
		}
		pol := dc.Policy{MaxKB: args[1].I}
		if age := args[2].S; age != "" {
			d, err := time.ParseDuration(age)
			if err != nil {
				return types.Value{}, fmt.Errorf("SET_DATA_COLLECTOR_POLICY: bad max_age %q: %v", age, err)
			}
			pol.MaxAge = d
		}
		if err := c.dcs.SetPolicy(comp, pol); err != nil {
			return types.Value{}, err
		}
		return types.StringValue(fmt.Sprintf("SET policy %s: max %d KB, max age %s", comp, pol.MaxKB, pol.MaxAge)), nil
	})
	c.registerFunc("GET_DATA_COLLECTOR_POLICY", types.Varchar, func(args []types.Value, _ map[string]string) (types.Value, error) {
		if len(args) != 1 {
			return types.Value{}, fmt.Errorf("GET_DATA_COLLECTOR_POLICY takes (component)")
		}
		if c.dcs == nil {
			return types.Value{}, fmt.Errorf("GET_DATA_COLLECTOR_POLICY requires a durable cluster (Config.DataDir)")
		}
		pol, ok := c.dcs.GetPolicy(args[0].S)
		if !ok {
			return types.Value{}, fmt.Errorf("GET_DATA_COLLECTOR_POLICY: unknown component %q", args[0].S)
		}
		maxKB := pol.MaxKB
		if maxKB <= 0 {
			maxKB = dc.DefaultMaxKB
		}
		age := "none"
		if pol.MaxAge > 0 {
			age = pol.MaxAge.String()
		}
		return types.StringValue(fmt.Sprintf("max %d KB, max age %s", maxKB, age)), nil
	})
}
