// Package jdbcsource reimplements Spark 1.5's JDBC Default Source — the
// baseline of §4.7.1 — with its exact limitations, so the comparison against
// the connector is honest:
//
//   - Load parallelism requires an integer partition column with
//     user-supplied lower/upper bounds; partitions are equal strides of that
//     value range, NOT hash-ring ranges, so every query touches data on
//     every node (intra-Vertica gather traffic).
//   - Every connection goes through the single user-provided host.
//   - Loads are not pinned to an epoch: tasks running (or re-running) at
//     different times can see different table states — no consistent
//     snapshot.
//   - Save issues batched INSERT statements per partition, each partition
//     committing independently: a failed/restarted task can leave partial or
//     duplicate data. (§4.7.1: "they are not all under transaction control".)
package jdbcsource

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"vsfabric/internal/client"
	"vsfabric/internal/sim"
	"vsfabric/internal/spark"
	"vsfabric/internal/types"
)

// SourceName is the registration name, mirroring Spark's "jdbc" format.
const SourceName = "jdbc"

// Source implements the JDBC default source over the driver interface.
type Source struct {
	pool client.Connector
}

// New creates the source.
func New(pool client.Connector) *Source { return &Source{pool: pool} }

// Register installs the source under SourceName.
func (s *Source) Register() { spark.RegisterSource(SourceName, s) }

type options struct {
	host            string
	table           string
	partitionColumn string
	lowerBound      int64
	upperBound      int64
	numPartitions   int
	batchSize       int
}

func parseOptions(m map[string]string) (options, error) {
	o := options{numPartitions: 1, batchSize: 500}
	get := func(k string) string {
		for mk, v := range m {
			if strings.EqualFold(mk, k) {
				return v
			}
		}
		return ""
	}
	o.host = get("url")
	if o.host == "" {
		o.host = get("host")
	}
	o.table = get("dbtable")
	if o.table == "" {
		o.table = get("table")
	}
	if o.host == "" || o.table == "" {
		return o, fmt.Errorf("jdbcsource: url/host and dbtable/table are required")
	}
	o.partitionColumn = get("partitionColumn")
	if v := get("lowerBound"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return o, fmt.Errorf("jdbcsource: bad lowerBound %q", v)
		}
		o.lowerBound = n
	}
	if v := get("upperBound"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return o, fmt.Errorf("jdbcsource: bad upperBound %q", v)
		}
		o.upperBound = n
	}
	if v := get("numPartitions"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return o, fmt.Errorf("jdbcsource: bad numPartitions %q", v)
		}
		o.numPartitions = n
	}
	if v := get("batchsize"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return o, fmt.Errorf("jdbcsource: bad batchsize %q", v)
		}
		o.batchSize = n
	}
	// Spark's documented behaviour: without a partition column (and both
	// bounds), everything collapses to a single partition.
	if o.partitionColumn == "" || o.upperBound <= o.lowerBound {
		o.numPartitions = 1
	}
	return o, nil
}

// relation is the loaded JDBC relation.
type relation struct {
	sc     *spark.Context
	pool   client.Connector
	opts   options
	schema types.Schema
}

// CreateRelation implements spark.RelationProvider.
func (s *Source) CreateRelation(sc *spark.Context, m map[string]string) (spark.BaseRelation, error) {
	opts, err := parseOptions(m)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	conn, err := s.pool.Connect(ctx, opts.host)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	res, err := conn.Execute(ctx, fmt.Sprintf(
		"SELECT column_name, data_type FROM v_catalog.columns WHERE table_name = '%s'", types.SQLEscape(opts.table)))
	if err != nil {
		return nil, err
	}
	rel := &relation{sc: sc, pool: s.pool, opts: opts}
	for _, r := range res.Rows {
		t, err := types.ParseType(r[1].S)
		if err != nil {
			return nil, err
		}
		rel.schema.Cols = append(rel.schema.Cols, types.Column{Name: r[0].S, T: t})
	}
	if rel.schema.NumCols() == 0 {
		return nil, fmt.Errorf("jdbcsource: table %q not found", opts.table)
	}
	return rel, nil
}

// Schema implements spark.BaseRelation.
func (r *relation) Schema() (types.Schema, error) { return r.schema, nil }

// strideBounds computes Spark's equal-stride partition predicates over
// [lowerBound, upperBound).
func (r *relation) stridePredicate(p int) string {
	o := r.opts
	if o.numPartitions == 1 {
		return ""
	}
	span := o.upperBound - o.lowerBound
	stride := span / int64(o.numPartitions)
	lo := o.lowerBound + stride*int64(p)
	hi := lo + stride
	switch {
	case p == 0:
		return fmt.Sprintf("%s < %d", o.partitionColumn, hi)
	case p == o.numPartitions-1:
		return fmt.Sprintf("%s >= %d", o.partitionColumn, lo)
	default:
		return fmt.Sprintf("%s >= %d AND %s < %d", o.partitionColumn, lo, o.partitionColumn, hi)
	}
}

// BuildScan implements spark.PrunedFilteredScan. Note what it does NOT do:
// no hash-ring locality (queries gather from every node through the one
// host) and no epoch pinning (no cross-task snapshot).
func (r *relation) BuildScan(requiredCols []string, filters []spark.Filter) (*spark.RDD[types.Row], error) {
	if len(requiredCols) == 0 {
		requiredCols = r.schema.ColNames()
	}
	conds, err := spark.FiltersSQL(filters)
	if err != nil {
		return nil, err
	}
	rel := r
	return spark.NewRDD(r.sc, r.opts.numPartitions, func(tc *spark.TaskContext, p int) ([]types.Row, error) {
		if err := tc.Checkpoint("jdbc.task_start"); err != nil {
			return nil, err
		}
		where := append([]string{}, conds...)
		if pred := rel.stridePredicate(p); pred != "" {
			where = append(where, pred)
		}
		sql := fmt.Sprintf("SELECT %s FROM %s", strings.Join(requiredCols, ", "), rel.opts.table)
		if len(where) > 0 {
			sql += " WHERE " + strings.Join(where, " AND ")
		}
		// All partitions connect to the single configured host.
		ctx := tc.Context()
		conn, err := rel.pool.Connect(ctx, rel.opts.host)
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		// The raw pool does not emit connect costs itself.
		tc.Rec.Fixed(sim.FixedConnect)
		res, err := conn.Execute(ctx, sql)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}), nil
}

// SaveRelation implements spark.CreatableRelationProvider: batched INSERTs,
// one independent transaction per partition (the §4.7.1 save path with its
// partial/duplicate-load hazard).
func (s *Source) SaveRelation(sc *spark.Context, mode spark.SaveMode, m map[string]string, df *spark.DataFrame) error {
	opts, err := parseOptions(m)
	if err != nil {
		return err
	}
	schema := df.Schema()
	sctx := context.Background()
	setup, err := s.pool.Connect(sctx, opts.host)
	if err != nil {
		return err
	}
	exists := true
	if _, err := setup.Execute(sctx, "SELECT COUNT(*) FROM "+opts.table); err != nil {
		exists = false
	}
	switch mode {
	case spark.SaveOverwrite:
		if exists {
			if _, err := setup.Execute(sctx, "DROP TABLE "+opts.table); err != nil {
				setup.Close()
				return err
			}
		}
		exists = false
	case spark.SaveErrorIfExists:
		if exists {
			setup.Close()
			return fmt.Errorf("jdbcsource: table %q already exists", opts.table)
		}
	}
	if !exists {
		if _, err := setup.Execute(sctx, fmt.Sprintf("CREATE TABLE %s %s", opts.table, schema)); err != nil {
			setup.Close()
			return err
		}
	}
	setup.Close()

	rdd, err := df.RDD()
	if err != nil {
		return err
	}
	table, host, batch := opts.table, opts.host, opts.batchSize
	return rdd.ForeachPartition(func(tc *spark.TaskContext, rows []types.Row) error {
		if err := tc.Checkpoint("jdbc.save.task_start"); err != nil {
			return err
		}
		ctx := tc.Context()
		conn, err := s.pool.Connect(ctx, host)
		if err != nil {
			return err
		}
		defer conn.Close()
		// The raw pool does not emit connect costs itself.
		tc.Rec.Fixed(sim.FixedConnect)
		if _, err := conn.Execute(ctx, "BEGIN"); err != nil {
			return err
		}
		for off := 0; off < len(rows); off += batch {
			end := off + batch
			if end > len(rows) {
				end = len(rows)
			}
			var vals []string
			for _, r := range rows[off:end] {
				vals = append(vals, "("+rowLiterals(r)+")")
			}
			if _, err := conn.Execute(ctx, fmt.Sprintf("INSERT INTO %s VALUES %s", table, strings.Join(vals, ", "))); err != nil {
				return err
			}
			if err := tc.Checkpoint("jdbc.save.mid_batch"); err != nil {
				return err
			}
		}
		// Per-partition commit: independent of every other task.
		if _, err := conn.Execute(ctx, "COMMIT"); err != nil {
			return err
		}
		return tc.Checkpoint("jdbc.save.after_commit")
	})
}

func rowLiterals(r types.Row) string {
	lits := make([]string, len(r))
	for i, v := range r {
		lits[i] = v.SQLLiteral()
	}
	return strings.Join(lits, ", ")
}
