package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
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
	pool client.Connector
	// idle holds the sessions every V2S relation of the source reuses: its
	// reads are autocommit and leave no state on a session. S2V sessions
	// carry transactions and temp staging tables, so S2V dials its own.
	idle   *resilience.IdleSessions
	obsv   obs.Observer
	jobSeq atomic.Uint64
}

// NewDefaultSource builds a source over a driver connector.
func NewDefaultSource(pool client.Connector) *DefaultSource {
	return &DefaultSource{pool: pool, idle: resilience.NewIdleSessions()}
}

// Close closes the sessions the source's V2S relations left idle. A relation
// read after Close still works; it dials every session and keeps none.
func (d *DefaultSource) Close() { d.idle.Close() }

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
	opts.idle = d.idle
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

// The driver asks the catalog two questions, each in one statement: what a
// relation is (describe, once per relation) and where it lives as of which
// epoch (layout, once per plan).

// relDesc is what describe reads about one relation.
type relDesc struct {
	schema    types.Schema // columns in ordinal order
	isView    bool
	segmented bool
	// segExpr is the hash expression the table is segmented by, which
	// partition predicates range over; HASH(*) for anything else.
	segExpr string
}

// errNoRelation is describe's answer for a name that is neither a table nor
// a readable view.
var errNoRelation = errors.New("does not exist in Vertica")

// describe reads a table's columns, in ordinal order, joined with its
// segmentation. A name with no catalog table costs a second statement: the
// zero-row probe that gives a view its schema.
func describe(ctx context.Context, conn client.Conn, name string) (*relDesc, error) {
	res, err := conn.Execute(ctx, fmt.Sprintf(
		"SELECT c.column_name, c.data_type, c.ordinal_position, t.is_segmented, t.segment_expression "+
			"FROM v_catalog.columns c JOIN v_catalog.tables t ON c.table_name = t.table_name "+
			"WHERE t.table_name = '%s' ORDER BY c.ordinal_position", types.SQLEscape(name)))
	if err != nil {
		return nil, err
	}
	d := &relDesc{segExpr: "HASH(*)"}
	if len(res.Rows) == 0 {
		probe, err := conn.Execute(ctx, fmt.Sprintf("SELECT * FROM %s LIMIT 0", name))
		if err != nil {
			if resilience.IsTransient(err) || ctx.Err() != nil {
				return nil, err
			}
			return nil, fmt.Errorf("core: relation %q %w", name, errNoRelation)
		}
		d.schema, d.isView = probe.Schema, true
		return d, nil
	}
	for _, r := range res.Rows {
		t, err := types.ParseType(r[1].S)
		if err != nil {
			return nil, err
		}
		d.schema.Cols = append(d.schema.Cols, types.Column{Name: r[0].S, T: t})
	}
	d.segmented = res.Rows[0][3].AsBool()
	if e := res.Rows[0][4].S; d.segmented && e != "" {
		d.segExpr = e
	}
	return d, nil
}

// planLayout is one plan's view of the cluster: the addresses to read from,
// for a segmented table the hash range each one owns (segLo[i]..segHi[i] on
// addrs[i]), and the epoch the plan reads at.
type planLayout struct {
	addrs        []string
	segLo, segHi []uint64
	epoch        uint64
}

// layout reads where a relation lives and the last closed epoch. A segmented
// table lives on its segment rows, in ring order; they are authoritative, not
// the node list: mid-rebalance a table's own ring can hold fewer or more
// nodes than membership, and scans must be planned against the table's ring.
// A view or an unsegmented table lives on every node. The engine builds the
// catalog rows when it plans the statement and evaluates LAST_EPOCH() when it
// projects them, so the epoch is never older than the layout.
func layout(ctx context.Context, conn client.Conn, name string, segmented bool) (*planLayout, error) {
	sql := "SELECT LAST_EPOCH(), node_address FROM v_catalog.nodes"
	if segmented {
		sql = fmt.Sprintf("SELECT LAST_EPOCH(), node_address, segment_lower_bound, segment_upper_bound "+
			"FROM v_catalog.segments WHERE table_name = '%s'", types.SQLEscape(name))
	}
	res, err := conn.Execute(ctx, sql)
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		if segmented {
			return nil, fmt.Errorf("core: catalog reports no segments for table %q", name)
		}
		return nil, fmt.Errorf("core: cluster reports no nodes")
	}
	lay := &planLayout{epoch: uint64(res.Rows[0][0].AsInt())}
	for _, r := range res.Rows {
		lay.addrs = append(lay.addrs, r[1].S)
		if segmented {
			lay.segLo = append(lay.segLo, uint64(r[2].I))
			lay.segHi = append(lay.segHi, uint64(r[3].I))
		}
	}
	return lay, nil
}

// singleInt reads a one-cell result (COUNT(*)) as an integer.
func singleInt(res *vertica.Result) (int64, error) {
	v, err := res.Value()
	if err != nil {
		return 0, err
	}
	return v.AsInt(), nil
}
