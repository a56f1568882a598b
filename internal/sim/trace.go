package sim

import (
	"context"
	"sort"
	"sync"
)

// CPUKind labels a class of per-byte or per-row CPU work whose unit cost the
// cost model knows for the reference testbed.
type CPUKind string

// CPU work kinds recorded by the engines and the connector.
const (
	CPUScanRow     CPUKind = "scan_row"         // Vertica: visit one row during a segment scan (hash check)
	CPUWireEncode  CPUKind = "wire_encode"      // Vertica: encode one result byte for the client protocol
	CPUWireDecode  CPUKind = "wire_decode"      // client: decode one result byte
	CPUAvroEncode  CPUKind = "avro_encode"      // Spark: Avro-encode one byte
	CPUCopyParse   CPUKind = "copy_parse"       // Vertica: parse one COPY input byte (Avro or CSV)
	CPUCSVParse    CPUKind = "csv_parse"        // Spark/Vertica: parse one CSV byte
	CPUCSVFormat   CPUKind = "csv_format"       // format one CSV byte
	CPUInsertRow   CPUKind = "insert_row"       // Vertica: per-row INSERT-statement path (JDBC baseline)
	CPURowOverhead CPUKind = "row_overhead"     // per-row fixed work in the transfer pipeline (Figure 9)
	CPURowBlockEnc CPUKind = "row_block_encode" // Spark: encode one HDFS file byte (a row block)
	CPURowBlockDec CPUKind = "row_block_decode" // Spark: decode one HDFS file byte (a row block)
	CPUModelScore  CPUKind = "model_score"      // Vertica UDx: score one row against a PMML model
	CPUHashRow     CPUKind = "hash_row"         // hash one row for routing/segmentation
)

// FixedKind labels a latency-only overhead.
type FixedKind string

// Fixed overhead kinds.
const (
	FixedConnect   FixedKind = "connect"    // open a client session
	FixedQuery     FixedKind = "query"      // plan/launch one query
	FixedCommit    FixedKind = "commit"     // transaction commit round-trip
	FixedStatusOp  FixedKind = "status_op"  // one small status-table operation
	FixedTableDDL  FixedKind = "table_ddl"  // create/drop/rename a table
	FixedJobSetup  FixedKind = "job_setup"  // Spark job launch/teardown
	FixedTaskStart FixedKind = "task_start" // scheduler task launch
)

// Event is one recorded unit of work. Exactly one of the pointer groups is
// meaningful, discriminated by Type.
type Event struct {
	Type EventType

	// Fixed overhead (FixedEv).
	FixedKind FixedKind

	// Pure CPU stage (CPUEv): Units of CPUKind work on Node.
	Node    string
	CPUKind CPUKind
	Units   float64

	// Query result stream (QueryFlowEv): a pipelined scan+encode+transfer
	// from VNode to CNode, with per-node scan work and any intra-Vertica
	// gather traffic recorded as observed.
	VNode       string
	CNode       string
	ResultBytes float64
	ResultRows  float64
	ScanRows    map[string]float64    // node → rows visited
	Shuffle     map[[2]string]float64 // (src,dst) → bytes moved inside Vertica

	// Load stream (LoadFlowEv): a pipelined encode+transfer+parse+route from
	// CNode into VNode.
	WireBytes  float64
	EncodeKind CPUKind // client-side per-byte encode work (avro_encode, csv_format)
	ParseKind  CPUKind // server-side per-byte parse work (copy_parse, csv_parse)
	InsertRows float64 // rows taking the per-row INSERT path (JDBC baseline)
	Route      map[[2]string]float64
	// Local marks a node-local bulk load (COPY FROM a local file, §4.7.3):
	// the stream reads the node's disk instead of crossing the network.
	Local bool

	// HDFS block (BlockFlowEv): Bytes of the block, read (Write=false) or
	// written.
	Bytes float64
	Write bool
}

// EventType discriminates Event.
type EventType int

// Event types.
const (
	FixedEv EventType = iota
	CPUEv
	QueryFlowEv
	LoadFlowEv
	// BlockFlowEv is an HDFS block read or write: a pipelined
	// disk+network+codec flow between a datanode (VNode) and a client
	// (CNode). Write=true adds the replication pipeline recorded in Route
	// (datanode→datanode bytes, each also hitting the replica's disk).
	BlockFlowEv
)

// TaskRec accumulates the events of one logical task (one Spark partition's
// work, one COPY stream, ...). Safe for use by one goroutine; distinct tasks
// record concurrently into the same Trace.
type TaskRec struct {
	ID       string
	ExecNode string // Spark node name the task runs on ("" = not slot-gated)
	mu       sync.Mutex
	events   []Event
}

// Add appends an event.
func (t *TaskRec) Add(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Fixed records a latency-only overhead.
func (t *TaskRec) Fixed(kind FixedKind) {
	t.Add(Event{Type: FixedEv, FixedKind: kind})
}

type taskKey struct{}

// WithTask makes rec the task record of the work done under the returned
// context: the engine's statements and the resilient connector's dials add
// their cost events to it. It is the trace's only carrier into code that
// takes just a context (client.Conn). A nil rec leaves ctx unchanged.
func WithTask(ctx context.Context, rec *TaskRec) context.Context {
	if rec == nil {
		return ctx
	}
	return context.WithValue(ctx, taskKey{}, rec)
}

// TaskFrom returns the context's task record, or nil — on which the
// recording methods are no-ops — when the work is not traced.
func TaskFrom(ctx context.Context) *TaskRec {
	rec, _ := ctx.Value(taskKey{}).(*TaskRec)
	return rec
}

// Events returns a copy of the recorded events.
func (t *TaskRec) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Trace collects the task records of one job (one connector invocation, one
// baseline run). A nil *Trace is a valid no-op recorder, so production paths
// carry it unconditionally.
type Trace struct {
	mu    sync.Mutex
	tasks []*TaskRec
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Task creates and registers a new task record. On a nil trace it returns
// nil, which every TaskRec method tolerates.
func (tr *Trace) Task(id, execNode string) *TaskRec {
	if tr == nil {
		return nil
	}
	t := &TaskRec{ID: id, ExecNode: execNode}
	tr.mu.Lock()
	tr.tasks = append(tr.tasks, t)
	tr.mu.Unlock()
	return t
}

// Tasks returns the registered task records sorted by ID for determinism.
func (tr *Trace) Tasks() []*TaskRec {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]*TaskRec, len(tr.tasks))
	copy(out, tr.tasks)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
