package vertica

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var (
	promMetricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promSampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (NaN|[-+]?(?:[0-9]*\.)?[0-9]+(?:[eE][-+]?[0-9]+)?)$`)
	promLabelPair  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$`)
)

// promSample is one parsed exposition sample.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parsePromText validates body against the Prometheus text exposition rules
// this test suite enforces: every non-comment line is a well-formed sample,
// every sample's family has a preceding # TYPE, and label pairs parse.
func parsePromText(t *testing.T, body string) []promSample {
	t.Helper()
	typed := map[string]string{}
	var samples []promSample
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 3 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				t.Fatalf("line %d: malformed comment %q", ln, line)
			}
			if !promMetricName.MatchString(parts[2]) {
				t.Fatalf("line %d: bad metric name %q", ln, parts[2])
			}
			if parts[1] == "TYPE" {
				typed[parts[2]] = strings.TrimSpace(parts[3])
			}
			continue
		}
		m := promSampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample %q", ln, line)
		}
		name := m[1]
		family := strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_count")
		if typed[name] == "" && typed[family] == "" {
			t.Fatalf("line %d: sample %q has no preceding # TYPE", ln, name)
		}
		labels := map[string]string{}
		if m[2] != "" {
			for _, pair := range splitLabelPairs(m[2][1 : len(m[2])-1]) {
				if !promLabelPair.MatchString(pair) {
					t.Fatalf("line %d: bad label pair %q", ln, pair)
				}
				eq := strings.IndexByte(pair, '=')
				labels[pair[:eq]] = pair[eq+2 : len(pair)-1]
			}
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q", ln, m[3])
		}
		samples = append(samples, promSample{name: name, labels: labels, value: v})
	}
	return samples
}

// splitLabelPairs splits `a="x",b="y"` on commas outside quotes.
func splitLabelPairs(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func metricsBody(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestMetricsEndpoint drives a small workload through a cluster with the
// metrics listener enabled and validates the full scrape under the text
// exposition rules, including histogram bucket monotonicity and the
// presence of the pool/WAL/node series the issue requires.
func TestMetricsEndpoint(t *testing.T) {
	c, err := NewCluster(Config{Nodes: 2, MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr := c.MetricsAddr()
	if addr == "" {
		t.Fatal("MetricsAddr is empty with a configured listener")
	}
	s, err := c.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.MustExecute("CREATE TABLE mt (id INTEGER, v VARCHAR) SEGMENTED BY HASH(id)")
	s.MustExecute("INSERT INTO mt VALUES (1, 'a'), (2, 'b'), (3, 'c')")
	for i := 0; i < 5; i++ {
		s.MustExecute("SELECT COUNT(*) FROM mt WHERE id >= 1")
	}

	code, body := metricsBody(t, addr, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	samples := parsePromText(t, body)

	byName := map[string][]promSample{}
	for _, sm := range samples {
		byName[sm.name] = append(byName[sm.name], sm)
	}
	for _, want := range []string{
		"vsfabric_counter_total",
		"vsfabric_latency_seconds_bucket",
		"vsfabric_latency_seconds_count",
		"vsfabric_pool_running",
		"vsfabric_pool_queue_depth",
		"vsfabric_pool_admitted_total",
		"vsfabric_wal_bytes_total",
		"vsfabric_wal_fsyncs_total",
		"vsfabric_node_state",
		"vsfabric_node_up",
	} {
		if len(byName[want]) == 0 {
			t.Errorf("/metrics is missing %s", want)
		}
	}

	// Histogram contract: per op, buckets are cumulative non-decreasing,
	// an le="+Inf" bucket exists, and it equals the _count sample.
	byOp := map[string][]promSample{}
	for _, sm := range byName["vsfabric_latency_seconds_bucket"] {
		byOp[sm.labels["op"]] = append(byOp[sm.labels["op"]], sm)
	}
	counts := map[string]float64{}
	for _, sm := range byName["vsfabric_latency_seconds_count"] {
		counts[sm.labels["op"]] = sm.value
	}
	if len(byOp) == 0 {
		t.Fatal("no latency buckets after a query workload")
	}
	for op, buckets := range byOp {
		type bv struct {
			le  float64
			inf bool
			v   float64
		}
		var bs []bv
		for _, sm := range buckets {
			le := sm.labels["le"]
			if le == "+Inf" {
				bs = append(bs, bv{inf: true, v: sm.value})
				continue
			}
			f, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("op %s: bad le %q", op, le)
			}
			bs = append(bs, bv{le: f, v: sm.value})
		}
		sort.Slice(bs, func(i, j int) bool {
			if bs[i].inf != bs[j].inf {
				return bs[j].inf
			}
			return bs[i].le < bs[j].le
		})
		if !bs[len(bs)-1].inf {
			t.Fatalf("op %s: no le=\"+Inf\" bucket", op)
		}
		for i := 1; i < len(bs); i++ {
			if bs[i].v < bs[i-1].v {
				t.Fatalf("op %s: bucket counts not cumulative: %v", op, bs)
			}
		}
		if got := bs[len(bs)-1].v; got != counts[op] {
			t.Fatalf("op %s: +Inf bucket %v != count %v", op, got, counts[op])
		}
	}

	// The execute histogram must be present after 5 queries.
	if _, ok := byOp["execute"]; !ok {
		t.Errorf("no latency series for op=execute: %v", mapsKeys(byOp))
	}

	// Per-node state: every node UP, one-hot gauges say so.
	up := 0
	for _, sm := range byName["vsfabric_node_up"] {
		if sm.value == 1 {
			up++
		}
	}
	if up != 2 {
		t.Fatalf("vsfabric_node_up reports %d of 2 nodes up", up)
	}
}

func mapsKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// TestHealthzReflectsNodeStates checks /healthz flips to 503 when a node
// goes down and back to 200 after it heals.
func TestHealthzReflectsNodeStates(t *testing.T) {
	c, err := NewCluster(Config{Nodes: 2, MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr := c.MetricsAddr()

	code, body := metricsBody(t, addr, "/healthz")
	if code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q with all nodes up", code, body)
	}
	c.Nodes()[1].SetDown(true)
	code, body = metricsBody(t, addr, "/healthz")
	if code != 503 {
		t.Fatalf("/healthz = %d with a node down", code)
	}
	if !strings.Contains(body, "DOWN") || !strings.Contains(body, "degraded") {
		t.Fatalf("/healthz body %q does not name the down node", body)
	}
	c.Nodes()[1].SetDown(false)
	code, _ = metricsBody(t, addr, "/healthz")
	if code != 200 {
		t.Fatalf("/healthz = %d after the node healed", code)
	}
}

// TestMetricsQueryEventSeries checks raised query events surface as
// vsfabric_query_events_total{type=...} samples.
func TestMetricsQueryEventSeries(t *testing.T) {
	c, err := NewCluster(Config{Nodes: 1, MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.MustExecute("SET SESSION SLOW_QUERY_THRESHOLD = '1ns'")
	s.MustExecute("CREATE TABLE qe (id INTEGER)")
	s.MustExecute("INSERT INTO qe VALUES (1)")
	s.MustExecute("SELECT id FROM qe")

	_, body := metricsBody(t, c.MetricsAddr(), "/metrics")
	samples := parsePromText(t, body)
	found := false
	for _, sm := range samples {
		if sm.name == "vsfabric_query_events_total" && sm.labels["type"] == "SLOW_QUERY" && sm.value >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no vsfabric_query_events_total{type=\"SLOW_QUERY\"} sample:\n%s", grepLines(body, "query_events"))
	}
}

// TestMetricsQueryEventTotalsPastTheRing raises more SLOW_QUERY events than
// the collector's ring holds: the scraped total must count every one of them
// (a Prometheus counter never stops or goes down), and every type in the
// taxonomy has a sample, zeros included.
func TestMetricsQueryEventTotalsPastTheRing(t *testing.T) {
	c, err := NewCluster(Config{Nodes: 1, MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 5000
	s.MustExecute("SET SESSION SLOW_QUERY_THRESHOLD = '1ns'")
	for i := 0; i < n; i++ {
		s.MustExecute("SELECT 1")
	}

	_, body := metricsBody(t, c.MetricsAddr(), "/metrics")
	got := map[string]float64{}
	for _, sm := range parsePromText(t, body) {
		if sm.name == "vsfabric_query_events_total" {
			got[sm.labels["type"]] = sm.value
		}
	}
	if got["SLOW_QUERY"] < n {
		t.Errorf("vsfabric_query_events_total{type=\"SLOW_QUERY\"} = %v after %d slow statements", got["SLOW_QUERY"], n)
	}
	for _, ty := range []string{"POOL_QUEUE_WAIT", "JOIN_BUILD_SIDE_LARGE", "WAL_FSYNC_STALL"} {
		if v, ok := got[ty]; !ok || v != 0 {
			t.Errorf("vsfabric_query_events_total{type=%q} = %v (present %v), want a zero sample", ty, v, ok)
		}
	}
}

func grepLines(body, needle string) string {
	var out []string
	for _, l := range strings.Split(body, "\n") {
		if strings.Contains(l, needle) {
			out = append(out, l)
		}
	}
	if len(out) == 0 {
		return "(no matching lines)"
	}
	return fmt.Sprint(strings.Join(out, "\n"))
}
