package vsql

import (
	"time"

	"vsfabric/internal/expr"
	"vsfabric/internal/types"
)

// Statement is any parsed SQL statement.
type Statement interface{ isStmt() }

// AggFn is an aggregate function name.
type AggFn string

// Aggregate functions.
const (
	AggCount AggFn = "COUNT"
	AggSum   AggFn = "SUM"
	AggAvg   AggFn = "AVG"
	AggMin   AggFn = "MIN"
	AggMax   AggFn = "MAX"
)

// SelectItem is one output of a SELECT: a star, an aggregate, or a scalar
// expression.
type SelectItem struct {
	Star  bool
	Agg   AggFn     // "" if not an aggregate
	Arg   expr.Expr // aggregate argument; nil for COUNT(*)
	Expr  expr.Expr // scalar expression when Agg == "" and !Star
	Alias string
}

// EpochRef selects the snapshot for AT EPOCH queries.
type EpochRef struct {
	Latest bool
	N      uint64
}

// TableRef names a table or view, with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// JoinClause is an inner equi-join against a second table.
type JoinClause struct {
	Right    TableRef
	LeftCol  string
	RightCol string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Col  string
	Desc bool
}

// Select is a query statement.
type Select struct {
	Items   []SelectItem
	From    *TableRef     // nil for FROM-less SELECT (e.g. SELECT LAST_EPOCH())
	Joins   []*JoinClause // inner equi-joins, in syntactic order
	Where   expr.Expr
	GroupBy []string
	OrderBy []OrderItem
	Limit   int64 // -1 = no limit
	AtEpoch *EpochRef
}

func (*Select) isStmt() {}

// Profile wraps a SELECT to run it with per-operator instrumentation: the
// result set is the operator timing breakdown, not the query's rows
// (Vertica's PROFILE directive).
type Profile struct {
	Select *Select
}

func (*Profile) isStmt() {}

// Explain wraps a SELECT to plan it without executing: the result set is the
// planner's chosen strategy — join order, build sides, pushdowns, and
// per-table container pruning from zone maps.
type Explain struct {
	Select *Select
}

func (*Explain) isStmt() {}

// ColumnDef is one column in a CREATE TABLE.
type ColumnDef struct {
	Name string
	Type types.Type
}

// CreateTable creates a table.
type CreateTable struct {
	Name        string
	Temp        bool
	IfNotExists bool
	Cols        []ColumnDef
	Like        string   // CREATE TABLE x LIKE y (schema copy); Cols empty
	SegCols     []string // SEGMENTED BY HASH(...)
	Unsegmented bool
	KSafety     int
}

func (*CreateTable) isStmt() {}

// DropTable drops a table.
type DropTable struct {
	Name     string
	IfExists bool
}

func (*DropTable) isStmt() {}

// CreateView registers a view over a SELECT.
type CreateView struct {
	Name      string
	SelectSQL string // original text of the defining SELECT
	Stmt      *Select
}

func (*CreateView) isStmt() {}

// DropView drops a view.
type DropView struct {
	Name     string
	IfExists bool
}

func (*DropView) isStmt() {}

// AlterClusterAction selects what an ALTER CLUSTER statement does.
type AlterClusterAction int

const (
	// AlterClusterAdd grows the cluster by one node and rebalances every
	// table onto the extended ring (ALTER CLUSTER ADD NODE).
	AlterClusterAdd AlterClusterAction = iota + 1
	// AlterClusterRemove drains a node's segments onto the surviving members
	// and drops it (ALTER CLUSTER REMOVE NODE <id>).
	AlterClusterRemove
)

// AlterCluster changes cluster membership (ALTER CLUSTER ADD/REMOVE NODE).
type AlterCluster struct {
	Action AlterClusterAction
	Node   int // the node to remove (ignored for ADD)
}

func (*AlterCluster) isStmt() {}

// AlterRename renames a table (ALTER TABLE x RENAME TO y).
type AlterRename struct {
	Name    string
	NewName string
}

func (*AlterRename) isStmt() {}

// Insert adds rows: literal VALUES, or the result of a SELECT (INSERT INTO t
// SELECT ... — the server-side data movement S2V append mode commits with).
type Insert struct {
	Table  string
	Cols   []string
	Rows   [][]expr.Expr
	Select *Select
}

func (*Insert) isStmt() {}

// Update modifies rows (UPDATE t SET c = e, ... [WHERE p]).
type Update struct {
	Table string
	Set   []SetClause
	Where expr.Expr
}

// SetClause is one assignment in an UPDATE.
type SetClause struct {
	Col  string
	Expr expr.Expr
}

func (*Update) isStmt() {}

// Delete removes rows (DELETE FROM t [WHERE p]).
type Delete struct {
	Table string
	Where expr.Expr
}

func (*Delete) isStmt() {}

// CopyFormat is a COPY input format.
type CopyFormat string

// COPY formats.
const (
	CopyCSV  CopyFormat = "CSV"
	CopyAvro CopyFormat = "AVRO"
)

// Copy bulk-loads data into a table. The data source is either STDIN (the
// client streams data after issuing the statement — the VerticaCopyStream
// path S2V uses) or a node-local file path (the native bulk-load baseline of
// §4.7.3). The DIRECT keyword parses and means nothing: every load lands as
// ROS containers.
type Copy struct {
	Table     string
	Format    CopyFormat
	RejectMax int64
	FromStdin bool
	FromPath  string
}

func (*Copy) isStmt() {}

// Begin starts an explicit transaction.
type Begin struct{}

func (*Begin) isStmt() {}

// Commit commits the current transaction.
type Commit struct{}

func (*Commit) isStmt() {}

// Rollback aborts the current transaction.
type Rollback struct{}

func (*Rollback) isStmt() {}

// PoolParams carries the optional clauses of CREATE/ALTER RESOURCE POOL.
// Nil pointers mean "clause absent" so ALTER can change one knob without
// resetting the others.
type PoolParams struct {
	MemoryBytes    *int64         // MEMORYSIZE '100M' | bytes | NONE (0 = unlimited)
	MaxConcurrency *int           // MAXCONCURRENCY n | NONE (0 = unlimited)
	MaxQueueDepth  *int           // MAXQUEUEDEPTH n | NONE (-1 = unlimited, 0 = never queue)
	QueueTimeout   *time.Duration // QUEUETIMEOUT secs | 'duration' | NONE (0 = wait forever)
}

// CreateResourcePool creates a named admission-control pool.
type CreateResourcePool struct {
	Name        string
	IfNotExists bool
	Params      PoolParams
}

func (*CreateResourcePool) isStmt() {}

// AlterResourcePool changes the named pool's admission policy; only the
// clauses present are modified.
type AlterResourcePool struct {
	Name   string
	Params PoolParams
}

func (*AlterResourcePool) isStmt() {}

// DropResourcePool removes a pool. The built-in general pool is protected.
type DropResourcePool struct {
	Name     string
	IfExists bool
}

func (*DropResourcePool) isStmt() {}

// Set assigns a session parameter: SET [SESSION] <name> = <value>.
// The only parameter today is RESOURCE_POOL.
type Set struct {
	Name  string
	Value string
}

func (*Set) isStmt() {}
