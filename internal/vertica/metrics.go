package vertica

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"vsfabric/internal/obs"
)

// This file is the node metrics/health endpoint: a small HTTP listener
// (off by default, enabled by Config.MetricsAddr) serving
//
//   /metrics — Prometheus text exposition: every obs counter, the latency
//              histograms re-expressed as cumulative le-bucketed series,
//              resource-pool occupancy and queue depth, WAL bytes/fsyncs,
//              data-collector spool sizes, query-event totals, and per-node
//              state gauges.
//   /healthz — 200 when every non-removed node is UP, 503 otherwise, with
//              one "node state" line per node either way. Suitable as a
//              liveness/readiness probe for the whole fabric node.
//
// The handler snapshots the collector on every scrape; nothing is cached,
// so a scrape always reflects the instant it was served.

// metricsServer owns the listener so Close can unblock Serve and release
// the port deterministically.
type metricsServer struct {
	ln  net.Listener
	srv *http.Server
}

// startMetrics binds addr and serves /metrics and /healthz until Close.
// Binding ":0" picks a free port; MetricsAddr() reports the bound address.
func (c *Cluster) startMetrics(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", c.serveMetrics)
	mux.HandleFunc("/healthz", c.serveHealthz)
	srv := &http.Server{Handler: mux}
	c.metrics = &metricsServer{ln: ln, srv: srv}
	go srv.Serve(ln)
	return nil
}

func (m *metricsServer) stop() {
	m.srv.Close()
	m.ln.Close()
}

// MetricsAddr returns the bound address of the metrics listener ("" when
// the endpoint is disabled). Tests bind ":0" and read the port from here.
func (c *Cluster) MetricsAddr() string {
	if c.metrics == nil {
		return ""
	}
	return c.metrics.ln.Addr().String()
}

// promEscape escapes a label value per the Prometheus text format.
func promEscape(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func (c *Cluster) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder

	// Counters: one family, counter name as a label so new counters never
	// need a registry change.
	fmt.Fprintf(&b, "# HELP vsfabric_counter_total Engine counters by internal name.\n")
	fmt.Fprintf(&b, "# TYPE vsfabric_counter_total counter\n")
	for _, ctr := range c.mon.SortedCounters() {
		fmt.Fprintf(&b, "vsfabric_counter_total{name=%q} %d\n", promEscape(ctr.Name), ctr.Value)
	}

	// Latency histograms: log₂ buckets re-expressed as cumulative
	// Prometheus buckets in seconds, with the overflow bucket folded
	// into +Inf.
	fmt.Fprintf(&b, "# HELP vsfabric_latency_seconds Span latency distributions by operation.\n")
	fmt.Fprintf(&b, "# TYPE vsfabric_latency_seconds histogram\n")
	hists := c.mon.Histograms()
	sort.Slice(hists, func(i, j int) bool { return hists[i].Name < hists[j].Name })
	for _, h := range hists {
		var cum int64
		for _, bk := range h.Buckets {
			cum += bk.Count
			if bk.UpperBound == time.Duration(math.MaxInt64) {
				continue // folded into +Inf below
			}
			fmt.Fprintf(&b, "vsfabric_latency_seconds_bucket{op=%q,le=\"%g\"} %d\n",
				promEscape(h.Name), bk.UpperBound.Seconds(), cum)
		}
		fmt.Fprintf(&b, "vsfabric_latency_seconds_bucket{op=%q,le=\"+Inf\"} %d\n", promEscape(h.Name), h.Count)
		fmt.Fprintf(&b, "vsfabric_latency_seconds_count{op=%q} %d\n", promEscape(h.Name), h.Count)
	}

	// Resource pools: occupancy gauges plus lifetime admission counters.
	fmt.Fprintf(&b, "# HELP vsfabric_pool_running Statements currently admitted per pool.\n")
	fmt.Fprintf(&b, "# TYPE vsfabric_pool_running gauge\n")
	pools := c.pools.List()
	for _, st := range pools {
		fmt.Fprintf(&b, "vsfabric_pool_running{pool=%q} %d\n", promEscape(st.Name), st.Running)
	}
	fmt.Fprintf(&b, "# HELP vsfabric_pool_queue_depth Statements parked in the admission queue per pool.\n")
	fmt.Fprintf(&b, "# TYPE vsfabric_pool_queue_depth gauge\n")
	for _, st := range pools {
		fmt.Fprintf(&b, "vsfabric_pool_queue_depth{pool=%q} %d\n", promEscape(st.Name), st.QueueLen)
	}
	fmt.Fprintf(&b, "# HELP vsfabric_pool_memory_inuse_bytes Reserved memory per pool.\n")
	fmt.Fprintf(&b, "# TYPE vsfabric_pool_memory_inuse_bytes gauge\n")
	for _, st := range pools {
		fmt.Fprintf(&b, "vsfabric_pool_memory_inuse_bytes{pool=%q} %d\n", promEscape(st.Name), st.MemInUse)
	}
	fmt.Fprintf(&b, "# HELP vsfabric_pool_admitted_total Lifetime admissions per pool.\n")
	fmt.Fprintf(&b, "# TYPE vsfabric_pool_admitted_total counter\n")
	for _, st := range pools {
		fmt.Fprintf(&b, "vsfabric_pool_admitted_total{pool=%q} %d\n", promEscape(st.Name), st.Admitted)
	}
	fmt.Fprintf(&b, "# HELP vsfabric_pool_queued_total Lifetime admissions that waited in the queue first.\n")
	fmt.Fprintf(&b, "# TYPE vsfabric_pool_queued_total counter\n")
	for _, st := range pools {
		fmt.Fprintf(&b, "vsfabric_pool_queued_total{pool=%q} %d\n", promEscape(st.Name), st.Queued)
	}
	fmt.Fprintf(&b, "# HELP vsfabric_pool_refused_total Lifetime queue timeouts and rejections per pool.\n")
	fmt.Fprintf(&b, "# TYPE vsfabric_pool_refused_total counter\n")
	for _, st := range pools {
		fmt.Fprintf(&b, "vsfabric_pool_refused_total{pool=%q,reason=\"timeout\"} %d\n", promEscape(st.Name), st.Timeouts)
		fmt.Fprintf(&b, "vsfabric_pool_refused_total{pool=%q,reason=\"rejected\"} %d\n", promEscape(st.Name), st.Rejections)
	}

	// WAL: always emitted (zero on in-memory clusters) so dashboards can
	// rely on the series existing.
	fmt.Fprintf(&b, "# HELP vsfabric_wal_bytes_total Bytes appended to the write-ahead log.\n")
	fmt.Fprintf(&b, "# TYPE vsfabric_wal_bytes_total counter\n")
	fmt.Fprintf(&b, "vsfabric_wal_bytes_total %d\n", c.mon.Counter("wal.bytes"))
	fmt.Fprintf(&b, "# HELP vsfabric_wal_fsyncs_total WAL fsync calls.\n")
	fmt.Fprintf(&b, "# TYPE vsfabric_wal_fsyncs_total counter\n")
	fmt.Fprintf(&b, "vsfabric_wal_fsyncs_total %d\n", c.mon.Counter("wal.fsyncs"))

	// Data-collector spool: on-disk footprint per component.
	if c.dcs != nil {
		fmt.Fprintf(&b, "# HELP vsfabric_dc_spool_bytes On-disk bytes per data-collector component.\n")
		fmt.Fprintf(&b, "# TYPE vsfabric_dc_spool_bytes gauge\n")
		stats := c.dcs.Stats()
		for _, st := range stats {
			fmt.Fprintf(&b, "vsfabric_dc_spool_bytes{component=%q} %d\n", promEscape(st.Component), st.Bytes)
		}
		fmt.Fprintf(&b, "# HELP vsfabric_dc_spool_records Spooled records per data-collector component.\n")
		fmt.Fprintf(&b, "# TYPE vsfabric_dc_spool_records gauge\n")
		for _, st := range stats {
			fmt.Fprintf(&b, "vsfabric_dc_spool_records{component=%q} %d\n", promEscape(st.Component), st.Records)
		}
		fmt.Fprintf(&b, "# HELP vsfabric_dc_spool_segments Segment files per data-collector component.\n")
		fmt.Fprintf(&b, "# TYPE vsfabric_dc_spool_segments gauge\n")
		for _, st := range stats {
			fmt.Fprintf(&b, "vsfabric_dc_spool_segments{component=%q} %d\n", promEscape(st.Component), st.Segments)
		}
	}

	// Query events by type: the collector's per-name counters, one sample
	// per taxonomy type whether raised yet or not.
	fmt.Fprintf(&b, "# HELP vsfabric_query_events_total Engine query events by type.\n")
	fmt.Fprintf(&b, "# TYPE vsfabric_query_events_total counter\n")
	for _, t := range obs.QueryEventNames {
		fmt.Fprintf(&b, "vsfabric_query_events_total{type=%q} %d\n", promEscape(t), c.mon.Counter(t))
	}

	// Node state: a one-hot gauge per (node, state) plus a plain up gauge.
	fmt.Fprintf(&b, "# HELP vsfabric_node_state Node state one-hot (1 for the current state).\n")
	fmt.Fprintf(&b, "# TYPE vsfabric_node_state gauge\n")
	nodes := c.nodeList()
	for _, n := range nodes {
		fmt.Fprintf(&b, "vsfabric_node_state{node=%q,state=%q} 1\n",
			promEscape(n.Name), promEscape(strings.ToLower(n.State().String())))
	}
	fmt.Fprintf(&b, "# HELP vsfabric_node_up Whether the node is UP (1) or not (0).\n")
	fmt.Fprintf(&b, "# TYPE vsfabric_node_up gauge\n")
	for _, n := range nodes {
		up := 0
		if n.State() == NodeUp {
			up = 1
		}
		fmt.Fprintf(&b, "vsfabric_node_up{node=%q} %d\n", promEscape(n.Name), up)
	}

	w.Write([]byte(b.String()))
}

// serveHealthz reports 200 only when every non-removed node is UP; a DOWN
// or RECOVERING node degrades the whole endpoint to 503 so orchestrators
// see the fabric as not-ready until recovery completes.
func (c *Cluster) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	healthy := true
	var b strings.Builder
	for _, n := range c.nodeList() {
		st := n.State()
		if st == NodeRemoved {
			continue
		}
		if st != NodeUp {
			healthy = false
		}
		fmt.Fprintf(&b, "%s %s\n", n.Name, st.String())
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !healthy {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	b.WriteString(map[bool]string{true: "ok", false: "degraded"}[healthy])
	b.WriteString("\n")
	w.Write([]byte(b.String()))
}
