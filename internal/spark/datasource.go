package spark

import (
	"fmt"
	"strings"
	"sync"

	"vsfabric/internal/types"
)

// SaveMode mirrors Spark's DataFrame save modes (Table 1 of the paper).
type SaveMode string

// Save modes.
const (
	SaveOverwrite     SaveMode = "overwrite"
	SaveAppend        SaveMode = "append"
	SaveErrorIfExists SaveMode = "error"
)

// Filter is a pushdown-able predicate, the Spark 1.5
// org.apache.spark.sql.sources filter algebra the External Data Source API
// hands to relations (§3.1.1: project, filter, count are pushed into the
// database).
type Filter interface{ isFilter() }

// EqualTo pushes col = value.
type EqualTo struct {
	Col   string
	Value types.Value
}

func (EqualTo) isFilter() {}

// GreaterThan pushes col > value.
type GreaterThan struct {
	Col   string
	Value types.Value
}

func (GreaterThan) isFilter() {}

// GreaterThanOrEqual pushes col >= value.
type GreaterThanOrEqual struct {
	Col   string
	Value types.Value
}

func (GreaterThanOrEqual) isFilter() {}

// LessThan pushes col < value.
type LessThan struct {
	Col   string
	Value types.Value
}

func (LessThan) isFilter() {}

// LessThanOrEqual pushes col <= value.
type LessThanOrEqual struct {
	Col   string
	Value types.Value
}

func (LessThanOrEqual) isFilter() {}

// IsNull pushes col IS NULL.
type IsNull struct{ Col string }

func (IsNull) isFilter() {}

// IsNotNull pushes col IS NOT NULL.
type IsNotNull struct{ Col string }

func (IsNotNull) isFilter() {}

// EvalFilter applies a pushdown filter to a row (used by sources that
// cannot push it further, and by tests as ground truth).
func EvalFilter(f Filter, r types.Row, s *types.Schema) bool {
	colVal := func(name string) (types.Value, bool) {
		i := s.ColIndex(name)
		if i < 0 {
			return types.Value{}, false
		}
		return r[i], true
	}
	switch ff := f.(type) {
	case EqualTo:
		v, ok := colVal(ff.Col)
		return ok && !v.Null && types.Compare(v, ff.Value) == 0
	case GreaterThan:
		v, ok := colVal(ff.Col)
		return ok && !v.Null && types.Compare(v, ff.Value) > 0
	case GreaterThanOrEqual:
		v, ok := colVal(ff.Col)
		return ok && !v.Null && types.Compare(v, ff.Value) >= 0
	case LessThan:
		v, ok := colVal(ff.Col)
		return ok && !v.Null && types.Compare(v, ff.Value) < 0
	case LessThanOrEqual:
		v, ok := colVal(ff.Col)
		return ok && !v.Null && types.Compare(v, ff.Value) <= 0
	case IsNull:
		v, ok := colVal(ff.Col)
		return ok && v.Null
	case IsNotNull:
		v, ok := colVal(ff.Col)
		return ok && !v.Null
	default:
		return true
	}
}

// FiltersSQL renders pushdown filters as the SQL predicates a source sends to
// the database in their place, one per filter, to be ANDed.
func FiltersSQL(filters []Filter) ([]string, error) {
	var conds []string
	for _, f := range filters {
		var cond string
		switch ff := f.(type) {
		case EqualTo:
			cond = ff.Col + " = " + ff.Value.SQLLiteral()
		case GreaterThan:
			cond = ff.Col + " > " + ff.Value.SQLLiteral()
		case GreaterThanOrEqual:
			cond = ff.Col + " >= " + ff.Value.SQLLiteral()
		case LessThan:
			cond = ff.Col + " < " + ff.Value.SQLLiteral()
		case LessThanOrEqual:
			cond = ff.Col + " <= " + ff.Value.SQLLiteral()
		case IsNull:
			cond = ff.Col + " IS NULL"
		case IsNotNull:
			cond = ff.Col + " IS NOT NULL"
		default:
			return nil, fmt.Errorf("spark: filter %T cannot be pushed down", f)
		}
		conds = append(conds, cond)
	}
	return conds, nil
}

// BaseRelation is a loaded external relation.
type BaseRelation interface {
	Schema() (types.Schema, error)
}

// PrunedFilteredScan is the read-side interface: build an RDD of rows for
// the required columns with the given filters pushed down as far as the
// source can take them.
type PrunedFilteredScan interface {
	BaseRelation
	BuildScan(requiredCols []string, filters []Filter) (*RDD[types.Row], error)
}

// CountableScan lets a source answer COUNT(*) without moving rows — the
// count pushdown of §3.1.1.
type CountableScan interface {
	CountRows(filters []Filter) (int64, error)
}

// RelationProvider creates relations from options — Spark's DefaultSource
// contract. Implementations are registered under a format name.
type RelationProvider interface {
	CreateRelation(sc *Context, options map[string]string) (BaseRelation, error)
}

// CreatableRelationProvider is the write-side contract: persist a DataFrame.
type CreatableRelationProvider interface {
	SaveRelation(sc *Context, mode SaveMode, options map[string]string, df *DataFrame) error
}

var (
	sourcesMu sync.RWMutex
	sources   = make(map[string]RelationProvider)
)

// RegisterSource installs a data source under a format name (e.g.
// "com.vertica.spark.datasource.DefaultSource").
func RegisterSource(name string, p RelationProvider) {
	sourcesMu.Lock()
	defer sourcesMu.Unlock()
	sources[strings.ToLower(name)] = p
}

// LookupSource finds a registered source.
func LookupSource(name string) (RelationProvider, bool) {
	sourcesMu.RLock()
	defer sourcesMu.RUnlock()
	p, ok := sources[strings.ToLower(name)]
	return p, ok
}

// DataFrameReader implements the load half of Table 1:
// sc.Read().Format(...).Options(...).Load().
type DataFrameReader struct {
	sc      *Context
	format  string
	options map[string]string
}

// Read starts building a load.
func (sc *Context) Read() *DataFrameReader {
	return &DataFrameReader{sc: sc, options: make(map[string]string)}
}

// Format selects the data source implementation.
func (r *DataFrameReader) Format(name string) *DataFrameReader {
	r.format = name
	return r
}

// Option sets one source option.
func (r *DataFrameReader) Option(k, v string) *DataFrameReader {
	r.options[k] = v
	return r
}

// Options sets several source options.
func (r *DataFrameReader) Options(opts map[string]string) *DataFrameReader {
	for k, v := range opts {
		r.options[k] = v
	}
	return r
}

// Load resolves the relation. The scan stays lazy: projection, filters, and
// count applied to the resulting DataFrame before an action are pushed into
// the source, mirroring Catalyst's interaction with PrunedFilteredScan.
func (r *DataFrameReader) Load() (*DataFrame, error) {
	p, ok := LookupSource(r.format)
	if !ok {
		return nil, fmt.Errorf("spark: no data source registered as %q", r.format)
	}
	rel, err := p.CreateRelation(r.sc, r.options)
	if err != nil {
		return nil, err
	}
	schema, err := rel.Schema()
	if err != nil {
		return nil, err
	}
	return &DataFrame{sc: r.sc, schema: schema, relation: rel}, nil
}

// DataFrameWriter implements the save half of Table 1:
// df.Write().Format(...).Options(...).Mode(...).Save().
type DataFrameWriter struct {
	df      *DataFrame
	format  string
	mode    SaveMode
	options map[string]string
}

// Write starts building a save.
func (df *DataFrame) Write() *DataFrameWriter {
	return &DataFrameWriter{df: df, mode: SaveErrorIfExists, options: make(map[string]string)}
}

// Format selects the data source implementation.
func (w *DataFrameWriter) Format(name string) *DataFrameWriter {
	w.format = name
	return w
}

// Option sets one option.
func (w *DataFrameWriter) Option(k, v string) *DataFrameWriter {
	w.options[k] = v
	return w
}

// Options sets several options.
func (w *DataFrameWriter) Options(opts map[string]string) *DataFrameWriter {
	for k, v := range opts {
		w.options[k] = v
	}
	return w
}

// Mode sets the save mode.
func (w *DataFrameWriter) Mode(m SaveMode) *DataFrameWriter {
	w.mode = m
	return w
}

// Save runs the write through the registered source.
func (w *DataFrameWriter) Save() error {
	p, ok := LookupSource(w.format)
	if !ok {
		return fmt.Errorf("spark: no data source registered as %q", w.format)
	}
	cp, ok := p.(CreatableRelationProvider)
	if !ok {
		return fmt.Errorf("spark: source %q does not support saving", w.format)
	}
	return cp.SaveRelation(w.df.sc, w.mode, w.options, w.df)
}
