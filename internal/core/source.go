package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"vsfabric/internal/client"
	"vsfabric/internal/obs"
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
// Table 1).
func (d *DefaultSource) CreateRelation(sc *spark.Context, options map[string]string) (spark.BaseRelation, error) {
	opts, err := parseV2SOptions(options)
	if err != nil {
		return nil, err
	}
	opts.Observer = d.obsv
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
	opts.Observer = d.obsv
	w := &s2vWriter{pool: d.pool, opts: opts, mode: mode}
	return w.run(sc, df)
}

// The External Data Source API hands the connector a map[string]string (the
// `opts` of Table 1). The functions below fill the typed options of
// options.go from it, one optionKey per key the direction knows; a key it
// does not know is an error, never a silently ignored default.

// optionKey is one option: its spelling (matched case-insensitively, the
// Spark options map convention) and the setter that parses its value.
type optionKey struct {
	name string
	set  func(v string) (ok bool)
}

func stringOpt(dst *string) func(string) bool {
	return func(v string) bool { *dst = v; return true }
}

func positiveIntOpt(dst *int) func(string) bool {
	return func(v string) bool {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return false
		}
		*dst = n
		return true
	}
}

func millisOpt(dst *time.Duration) func(string) bool {
	return func(v string) bool {
		var n int
		ok := positiveIntOpt(&n)(v)
		*dst = time.Duration(n) * time.Millisecond
		return ok
	}
}

// connKeys are the options both directions share.
func connKeys(c *ConnOptions) []optionKey {
	return []optionKey{
		{"table", stringOpt(&c.Table)},
		{"host", stringOpt(&c.Host)},
		{"user", stringOpt(&c.User)},
		{"password", stringOpt(&c.Password)},
		{"db", stringOpt(&c.DB)},
		{"numPartitions", positiveIntOpt(&c.NumPartitions)},
		{"retry_attempts", positiveIntOpt(&c.Retry.MaxAttempts)},
		{"retry_backoff_ms", millisOpt(&c.Retry.BaseBackoff)},
		{"op_timeout_ms", millisOpt(&c.Retry.OpTimeout)},
	}
}

// applyOptions runs every entry of m through its key's setter, in key order
// so the error for a map with several mistakes does not depend on map
// iteration. An empty value leaves the option at its default.
func applyOptions(m map[string]string, direction string, keys []optionKey) error {
	given := make([]string, 0, len(m))
	for k := range m {
		given = append(given, k)
	}
	sort.Strings(given)
next:
	for _, k := range given {
		for _, key := range keys {
			if !strings.EqualFold(k, key.name) {
				continue
			}
			if v := m[k]; v != "" && !key.set(v) {
				return fmt.Errorf("core: bad %s %q", key.name, v)
			}
			continue next
		}
		known := make([]string, len(keys))
		for i, key := range keys {
			known[i] = key.name
		}
		return fmt.Errorf("core: unknown %s option %q (known: %s)", direction, k, strings.Join(known, ", "))
	}
	return nil
}

// parseV2SOptions parses the map form of load options.
func parseV2SOptions(m map[string]string) (V2SOptions, error) {
	var o V2SOptions
	err := applyOptions(m, "load", append(connKeys(&o.ConnOptions),
		optionKey{"disable_locality_optimization", func(v string) bool {
			b, err := strconv.ParseBool(v)
			o.DisableLocality = b
			return err == nil
		}}))
	if err == nil {
		err = o.validate()
	}
	return o, err
}

// parseS2VOptions parses the map form of save options.
func parseS2VOptions(m map[string]string) (S2VOptions, error) {
	o := S2VOptions{CopyFormat: "avro"}
	err := applyOptions(m, "save", append(connKeys(&o.ConnOptions),
		optionKey{"jobname", stringOpt(&o.JobName)},
		optionKey{"failedRowsPercentTolerance", func(v string) bool {
			f, err := strconv.ParseFloat(v, 64)
			o.FailedRowsPercentTolerance = f
			return err == nil
		}},
		optionKey{"copy_format", func(v string) bool { o.CopyFormat = strings.ToLower(v); return true }}))
	if err == nil {
		err = o.validate()
	}
	return o, err
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

	res, err = conn.Execute(ctx, fmt.Sprintf("SELECT is_segmented FROM v_catalog.tables WHERE table_name = '%s'", types.SQLEscape(table)))
	if err != nil {
		return nil, err
	}
	switch len(res.Rows) {
	case 0:
		// Not a table: maybe a view.
		vres, err := conn.Execute(ctx, fmt.Sprintf("SELECT view_name FROM v_catalog.views WHERE view_name = '%s'", types.SQLEscape(table)))
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
			"SELECT column_name, data_type FROM v_catalog.columns WHERE table_name = '%s'", types.SQLEscape(table)))
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
			types.SQLEscape(table)))
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

// segmentationExpr returns the SQL hash expression matching the table's
// segmentation, read from the catalog.
func segmentationExpr(ctx context.Context, conn client.Conn, table string) (string, error) {
	res, err := conn.Execute(ctx, fmt.Sprintf(
		"SELECT segment_expression FROM v_catalog.tables WHERE table_name = '%s'", types.SQLEscape(table)))
	if err != nil {
		return "", err
	}
	if len(res.Rows) == 0 || res.Rows[0][0].S == "" {
		return "HASH(*)", nil
	}
	return res.Rows[0][0].S, nil
}

// singleInt reads a one-cell result (COUNT(*), LAST_EPOCH()) as an integer.
func singleInt(res *vertica.Result) (int64, error) {
	v, err := res.Value()
	if err != nil {
		return 0, err
	}
	return v.AsInt(), nil
}
