package core

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"vsfabric/internal/client"
	"vsfabric/internal/obs"
	"vsfabric/internal/resilience"
	"vsfabric/internal/spark"
	"vsfabric/internal/types"
	"vsfabric/internal/vertica"
)

// DefaultSource is the connector's data source implementation: the read side
// creates V2S relations, the write side runs the S2V protocol.
type DefaultSource struct {
	pool   client.Connector
	obsv   obs.Observer
	jobSeq atomic.Uint64
}

// NewDefaultSource builds a source over a driver connector.
func NewDefaultSource(pool client.Connector) *DefaultSource {
	return &DefaultSource{pool: pool}
}

// WithObserver attaches an observer that every relation and save created by
// this source reports to (connector spans and resilience events). Wire a
// vertica.Cluster's Obs() collector here to surface them in v_monitor.
// Returns d for chaining.
func (d *DefaultSource) WithObserver(o obs.Observer) *DefaultSource {
	d.obsv = o
	return d
}

// Register installs the source under DefaultSourceName.
func (d *DefaultSource) Register() { spark.RegisterSource(DefaultSourceName, d) }

// CreateRelation implements spark.RelationProvider (the LOAD half of
// Table 1). The map options are the External Data Source API's stringly
// form; programmatic callers should build V2SOptions via NewV2SOptions.
func (d *DefaultSource) CreateRelation(sc *spark.Context, options map[string]string) (spark.BaseRelation, error) {
	opts, err := parseV2SOptions(options)
	if err != nil {
		return nil, err
	}
	opts.Observer = obs.Multi(opts.Observer, d.obsv)
	return newV2SRelation(sc, d.pool, opts)
}

// SaveRelation implements spark.CreatableRelationProvider (the SAVE half of
// Table 1).
func (d *DefaultSource) SaveRelation(sc *spark.Context, mode spark.SaveMode, options map[string]string, df *spark.DataFrame) error {
	opts, err := parseS2VOptions(options)
	if err != nil {
		return err
	}
	if opts.JobName == "" {
		opts.JobName = fmt.Sprintf("s2v_job_%d", d.jobSeq.Add(1))
	}
	opts.Observer = obs.Multi(opts.Observer, d.obsv)
	w := &s2vWriter{pool: d.pool, opts: opts, mode: mode}
	return w.run(sc, df)
}

// The External Data Source API hands the connector a map[string]string (the
// `opts` of Table 1). The functions below parse that map into the typed
// options of options.go — all validation lives in the constructors; these
// only turn strings into values, with actionable errors naming the bad key.

// optLookup finds a key case-insensitively (the Spark options map convention).
func optLookup(m map[string]string, k string) string {
	for mk, v := range m {
		if strings.EqualFold(mk, k) {
			return v
		}
	}
	return ""
}

// parseCommon converts the shared string options into functional options.
func parseCommon(m map[string]string) (table, host string, opts []Option, err error) {
	table = optLookup(m, "table")
	host = optLookup(m, "host")
	if u, p, db := optLookup(m, "user"), optLookup(m, "password"), optLookup(m, "db"); u != "" || p != "" || db != "" {
		opts = append(opts, WithCredentials(u, p, db))
	}
	if v := optLookup(m, "numpartitions"); v != "" {
		n, convErr := strconv.Atoi(v)
		if convErr != nil || n <= 0 {
			return table, host, opts, fmt.Errorf("core: bad numPartitions %q", v)
		}
		opts = append(opts, WithPartitions(n))
	}
	var pol resilience.Policy
	havePol := false
	if v := optLookup(m, "retry_attempts"); v != "" {
		n, convErr := strconv.Atoi(v)
		if convErr != nil || n <= 0 {
			return table, host, opts, fmt.Errorf("core: bad retry_attempts %q", v)
		}
		pol.MaxAttempts, havePol = n, true
	}
	if v := optLookup(m, "retry_backoff_ms"); v != "" {
		n, convErr := strconv.Atoi(v)
		if convErr != nil || n <= 0 {
			return table, host, opts, fmt.Errorf("core: bad retry_backoff_ms %q", v)
		}
		pol.BaseBackoff, havePol = time.Duration(n)*time.Millisecond, true
	}
	if v := optLookup(m, "op_timeout_ms"); v != "" {
		n, convErr := strconv.Atoi(v)
		if convErr != nil || n <= 0 {
			return table, host, opts, fmt.Errorf("core: bad op_timeout_ms %q", v)
		}
		pol.OpTimeout, havePol = time.Duration(n)*time.Millisecond, true
	}
	if havePol {
		opts = append(opts, WithRetry(pol))
	}
	return table, host, opts, nil
}

// parseV2SOptions parses the map form of load options.
func parseV2SOptions(m map[string]string) (V2SOptions, error) {
	table, host, opts, err := parseCommon(m)
	if err != nil {
		return V2SOptions{}, err
	}
	if v := optLookup(m, "disable_locality_optimization"); v != "" {
		b, convErr := strconv.ParseBool(v)
		if convErr != nil {
			return V2SOptions{}, fmt.Errorf("core: bad disable_locality_optimization %q", v)
		}
		if b {
			opts = append(opts, WithoutLocality())
		}
	}
	return NewV2SOptions(table, host, opts...)
}

// parseS2VOptions parses the map form of save options.
func parseS2VOptions(m map[string]string) (S2VOptions, error) {
	table, host, opts, err := parseCommon(m)
	if err != nil {
		return S2VOptions{}, err
	}
	if v := optLookup(m, "jobname"); v != "" {
		opts = append(opts, WithJobName(v))
	}
	if v := optLookup(m, "failedrowspercenttolerance"); v != "" {
		f, convErr := strconv.ParseFloat(v, 64)
		if convErr != nil || f < 0 || f > 1 {
			return S2VOptions{}, fmt.Errorf("core: bad failedRowsPercentTolerance %q (want [0,1])", v)
		}
		opts = append(opts, WithTolerance(f))
	}
	if v := optLookup(m, "copy_format"); v != "" {
		opts = append(opts, WithCopyFormat(v))
	}
	return NewS2VOptions(table, host, opts...)
}

// clusterLayout is what the driver discovers from the system catalog during
// setup: every node address plus the target's segmentation metadata.
type clusterLayout struct {
	addrs     []string
	segmented bool
	isView    bool
	schema    types.Schema
	// segments[i] is the hash range owned by addrs[i] (segmented tables).
	segLo, segHi []uint64
}

// discoverLayout reads v_catalog.nodes / tables / columns / segments through
// one connection.
func discoverLayout(ctx context.Context, conn client.Conn, table string) (*clusterLayout, error) {
	lay := &clusterLayout{}
	res, err := conn.Execute(ctx, "SELECT node_address FROM v_catalog.nodes")
	if err != nil {
		return nil, err
	}
	for _, r := range res.Rows {
		lay.addrs = append(lay.addrs, r[0].S)
	}
	if len(lay.addrs) == 0 {
		return nil, fmt.Errorf("core: cluster reports no nodes")
	}

	res, err = conn.Execute(ctx, fmt.Sprintf("SELECT is_segmented FROM v_catalog.tables WHERE table_name = '%s'", sqlEscape(table)))
	if err != nil {
		return nil, err
	}
	switch len(res.Rows) {
	case 0:
		// Not a table: maybe a view.
		vres, err := conn.Execute(ctx, fmt.Sprintf("SELECT view_name FROM v_catalog.views WHERE view_name = '%s'", sqlEscape(table)))
		if err != nil {
			return nil, err
		}
		if len(vres.Rows) == 0 {
			return nil, fmt.Errorf("core: relation %q does not exist in Vertica", table)
		}
		lay.isView = true
	default:
		lay.segmented = res.Rows[0][0].AsBool()
	}

	if lay.isView {
		// Views have no catalog columns; take the schema from a zero-row
		// probe.
		probe, err := conn.Execute(ctx, fmt.Sprintf("SELECT * FROM %s LIMIT 0", table))
		if err != nil {
			return nil, err
		}
		lay.schema = probe.Schema
	} else {
		cres, err := conn.Execute(ctx, fmt.Sprintf(
			"SELECT column_name, data_type FROM v_catalog.columns WHERE table_name = '%s'", sqlEscape(table)))
		if err != nil {
			return nil, err
		}
		for _, r := range cres.Rows {
			t, err := types.ParseType(r[1].S)
			if err != nil {
				return nil, err
			}
			lay.schema.Cols = append(lay.schema.Cols, types.Column{Name: r[0].S, T: t})
		}
		if lay.schema.NumCols() == 0 {
			return nil, fmt.Errorf("core: table %q has no columns in catalog", table)
		}
	}

	if lay.segmented {
		sres, err := conn.Execute(ctx, fmt.Sprintf(
			"SELECT node_address, segment_lower_bound, segment_upper_bound FROM v_catalog.segments WHERE table_name = '%s'",
			sqlEscape(table)))
		if err != nil {
			return nil, err
		}
		if len(sres.Rows) == 0 {
			return nil, fmt.Errorf("core: catalog reports no segments for table %q", table)
		}
		// The segment rows are authoritative, not the node list: mid-rebalance
		// (a node joining or draining) a table's own ring can momentarily hold
		// fewer or more nodes than cluster membership, and the table's ring is
		// what scans must be planned against. The catalog returns segments
		// ordered by ring position; take addresses from them wholesale.
		lay.addrs = lay.addrs[:0]
		for _, r := range sres.Rows {
			lay.addrs = append(lay.addrs, r[0].S)
			lay.segLo = append(lay.segLo, uint64(r[1].I))
			lay.segHi = append(lay.segHi, uint64(r[2].I))
		}
	}
	return lay, nil
}

func sqlEscape(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			out = append(out, '\'')
		}
		out = append(out, s[i])
	}
	return string(out)
}

// segmentationExpr returns the SQL hash expression matching the table's
// segmentation, read from the catalog.
func segmentationExpr(ctx context.Context, conn client.Conn, table string) (string, error) {
	res, err := conn.Execute(ctx, fmt.Sprintf(
		"SELECT segment_expression FROM v_catalog.tables WHERE table_name = '%s'", sqlEscape(table)))
	if err != nil {
		return "", err
	}
	if len(res.Rows) == 0 || res.Rows[0][0].S == "" {
		return "HASH(*)", nil
	}
	return res.Rows[0][0].S, nil
}

// resultToRows adapts engine results (used by small control queries).
func singleInt(res *vertica.Result) (int64, error) {
	v, err := res.Value()
	if err != nil {
		return 0, err
	}
	return v.AsInt(), nil
}
