package sim

import (
	"fmt"
	"math"
)

// Topology describes a simulated cluster in the paper's terms: a Vertica
// cluster, a Spark cluster, and optionally a separate HDFS cluster (§4.7.2
// uses a dedicated 4-node HDFS cluster so the comparison is symmetric).
type Topology struct {
	VerticaNodes int
	SparkNodes   int
	HDFSNodes    int
}

// VName returns the name of Vertica node i.
func VName(i int) string { return fmt.Sprintf("v%d", i) }

// SName returns the name of Spark node i.
func SName(i int) string { return fmt.Sprintf("s%d", i) }

// HName returns the name of HDFS node i.
func HName(i int) string { return fmt.Sprintf("h%d", i) }

// CostModel holds the calibrated unit costs of the reference testbed (§4.1:
// 2×8-core Xeons with SMT, 2×1 GbE NICs, 3 HDDs, 64 GB RAM per machine).
// All CPU costs are core-seconds per unit; a flow's rate is additionally
// capped at one core per single-threaded pipeline side.
type CostModel struct {
	NICBytesPerSec  float64 // per direction, per interface
	NICCongestionK  float64 // per-flow efficiency degradation on a NIC
	DiskBytesPerSec float64 // data-disk sequential throughput
	DiskCongestionK float64 // seek-thrash degradation per concurrent stream
	// DiskWriteFactor discounts bulk-load disk writes relative to raw bytes
	// (write-behind batching and ROS encoding make COPY's disk writes
	// cheaper per input byte than reads).
	DiskWriteFactor float64

	// SingleNetwork collapses the dedicated internal interface onto the
	// client-facing one (the paper's testbed pins internal traffic to its
	// own 1 GbE, §4.1; flip this for the locality ablation on shared-NIC
	// hardware).
	SingleNetwork bool

	VerticaCores      float64 // cores available to the data-movement resource pool
	SparkCores        float64 // cores per Spark worker (75% of 32 logical, §4.1)
	SparkSlotsPerNode int     // concurrent tasks per Spark worker

	CPUCost   map[CPUKind]float64 // core-seconds per unit
	FixedCost map[FixedKind]float64
}

// DefaultModel returns the cost model calibrated against the paper's
// reported anchors (Figure 6: V2S 497 s @32 / 475 s @128 partitions, S2V
// 252 s @128; Table 2: single-stream ~38 MBps, saturated ~120 MBps;
// Figure 11: 5 s / 3 s one-row overheads; Table 4: COPY 238 s). The two
// Avro rates were calibrated as 55 and 5 MB/s when S2V deflated D1 to 0.897
// of its records; S2V now sends records raw, so they read 55/0.897 and
// 5/0.897 MB/s of the same rows.
func DefaultModel() *CostModel {
	return &CostModel{
		NICBytesPerSec:  125e6,
		NICCongestionK:  0.002,
		DiskBytesPerSec: 140e6,
		DiskCongestionK: 0.02,
		DiskWriteFactor: 0.6,

		VerticaCores:      16,
		SparkCores:        24,
		SparkSlotsPerNode: 24,

		CPUCost: map[CPUKind]float64{
			CPUScanRow:     40e-9,        // visit + hash-range check per row
			CPUWireEncode:  1.0 / 40e6,   // ≈40 MBps single-stream result encode
			CPUWireDecode:  1.0 / 150e6,  // client-side decode is cheap
			CPUAvroEncode:  1.0 / 61.3e6, // Spark-side Avro encode per byte
			CPUCopyParse:   1.0 / 5.57e6, // Vertica network-COPY ingest (parse+sort+ROS) per byte, aggregated over the pool's cores
			CPUCSVParse:    1.0 / 75e6,   // CSV parse per byte
			CPUCSVFormat:   1.0 / 120e6,  // CSV format per byte
			CPUInsertRow:   9e-3,         // per-row INSERT statement path (JDBC save)
			CPURowOverhead: 1.8e-6,       // per-row pipeline overhead (Figure 9)
			CPURowBlockEnc: 1.0 / 160e6,
			CPURowBlockDec: 1.0 / 200e6,
			CPUModelScore:  2e-6, // per row scored by a PMML UDx
			CPUHashRow:     60e-9,
		},
		FixedCost: map[FixedKind]float64{
			FixedConnect:   0.5,
			FixedQuery:     0.18,
			FixedCommit:    0.2,
			FixedStatusOp:  0.12,
			FixedTableDDL:  0.25,
			FixedJobSetup:  1.2,
			FixedTaskStart: 0.05,
		},
	}
}

// BuildSystem constructs the simulated hardware for a topology. Every node
// gets a CPU resource and two NIC interfaces (external and internal — the
// paper pins Vertica-internal traffic to its own 1 GbE interface); data
// nodes (Vertica, HDFS) also get a data-disk resource. Each Spark node gets
// an executor slot pool.
func (m *CostModel) BuildSystem(topo Topology) *System {
	sys := NewSystem()
	addNIC := func(name string) {
		sys.AddResource(Resource{Name: "out:" + name, Capacity: m.NICBytesPerSec, CongestionK: m.NICCongestionK})
		sys.AddResource(Resource{Name: "in:" + name, Capacity: m.NICBytesPerSec, CongestionK: m.NICCongestionK})
		sys.AddResource(Resource{Name: "iout:" + name, Capacity: m.NICBytesPerSec, CongestionK: m.NICCongestionK})
		sys.AddResource(Resource{Name: "iin:" + name, Capacity: m.NICBytesPerSec, CongestionK: m.NICCongestionK})
	}
	for i := 0; i < topo.VerticaNodes; i++ {
		n := VName(i)
		sys.AddResource(Resource{Name: "cpu:" + n, Capacity: m.VerticaCores})
		sys.AddResource(Resource{Name: "disk:" + n, Capacity: m.DiskBytesPerSec, CongestionK: m.DiskCongestionK})
		addNIC(n)
	}
	for i := 0; i < topo.SparkNodes; i++ {
		n := SName(i)
		sys.AddResource(Resource{Name: "cpu:" + n, Capacity: m.SparkCores})
		addNIC(n)
		sys.AddPool(Pool{Name: "slots:" + n, Slots: m.SparkSlotsPerNode})
	}
	for i := 0; i < topo.HDFSNodes; i++ {
		n := HName(i)
		sys.AddResource(Resource{Name: "cpu:" + n, Capacity: m.SparkCores})
		sys.AddResource(Resource{Name: "disk:" + n, Capacity: m.DiskBytesPerSec, CongestionK: m.DiskCongestionK})
		addNIC(n)
	}
	return sys
}

// ioutRes / iinRes name the interfaces internal (node-to-node) traffic
// travels on: the dedicated second NIC normally, the shared client-facing
// NIC when SingleNetwork is set.
func (m *CostModel) ioutRes(node string) string {
	if m.SingleNetwork {
		return "out:" + node
	}
	return "iout:" + node
}

func (m *CostModel) iinRes(node string) string {
	if m.SingleNetwork {
		return "in:" + node
	}
	return "iin:" + node
}

// BuildTasks converts a recorded trace into simulator tasks, scaling every
// work amount (bytes, rows) by scale — fixed overheads do not scale. This is
// how a laptop-scale real run with, say, 1M rows projects to the paper's
// 100M-row experiments (scale=100).
func (m *CostModel) BuildTasks(tr *Trace, scale float64) []*Task {
	recs := tr.Tasks()
	out := make([]*Task, 0, len(recs))
	for _, rec := range recs {
		t := &Task{ID: rec.ID}
		if rec.ExecNode != "" {
			t.Pool = "slots:" + rec.ExecNode
		}
		for _, e := range rec.Events() {
			t.Steps = append(t.Steps, m.steps(e, scale)...)
		}
		out = append(out, t)
	}
	return out
}

// steps converts one recorded event into simulator steps (empty = no work).
// A load flow expands to two sequential steps — encode, then transfer —
// because an S2V task "is alternately encoding its data into Avro format or
// transferring the data to Vertica" (§4.2.1), which is why S2V benefits
// from more parallelism than V2S.
func (m *CostModel) steps(e Event, scale float64) []Step {
	one := func(s Step) []Step {
		if s == nil {
			return nil
		}
		return []Step{s}
	}
	switch e.Type {
	case FixedEv:
		return one(FixedStep{Seconds: m.FixedCost[e.FixedKind]})
	case CPUEv:
		cost := m.CPUCost[e.CPUKind]
		units := e.Units * scale
		if units <= 0 || cost <= 0 {
			return nil
		}
		return one(FlowStep{
			Units:   units,
			Demands: []Demand{{Res: "cpu:" + e.Node, PerUnit: cost}},
			RateCap: 1 / cost,
		})
	case QueryFlowEv:
		return one(m.queryFlowStep(e, scale))
	case LoadFlowEv:
		return m.loadFlowSteps(e, scale)
	case BlockFlowEv:
		return one(m.blockFlowStep(e, scale))
	default:
		return nil
	}
}

// queryFlowStep models a pipelined result stream: scan work on every node
// holding requested rows, gather traffic over the internal NICs, a
// single-threaded encode on the connected node, the external wire, and a
// decode on the client.
func (m *CostModel) queryFlowStep(e Event, scale float64) Step {
	bytes := e.ResultBytes * scale
	if bytes <= 0 {
		// Pure-scan query (pushed-down COUNT, status reads): CPU only.
		total := 0.0
		for _, r := range e.ScanRows {
			total += r
		}
		units := total * scale
		if units <= 0 {
			return nil
		}
		var dem []Demand
		for node, r := range e.ScanRows {
			dem = append(dem, Demand{Res: "cpu:" + node, PerUnit: m.CPUCost[CPUScanRow] * r / total})
		}
		return FlowStep{Units: units, Demands: dem, RateCap: 1 / m.CPUCost[CPUScanRow]}
	}
	encode := m.CPUCost[CPUWireEncode]
	decode := m.CPUCost[CPUWireDecode]
	rowOvh := m.CPUCost[CPURowOverhead] * e.ResultRows / e.ResultBytes
	dem := []Demand{
		{Res: "out:" + e.VNode, PerUnit: 1},
		{Res: "in:" + e.CNode, PerUnit: 1},
		{Res: "cpu:" + e.CNode, PerUnit: decode + rowOvh},
	}
	vcpu := encode + rowOvh
	for node, rows := range e.ScanRows {
		c := m.CPUCost[CPUScanRow] * rows / e.ResultBytes
		if node == e.VNode {
			vcpu += c
		} else {
			dem = append(dem, Demand{Res: "cpu:" + node, PerUnit: c})
		}
	}
	dem = append(dem, Demand{Res: "cpu:" + e.VNode, PerUnit: vcpu})
	for pair, b := range e.Shuffle {
		frac := b / e.ResultBytes
		dem = append(dem, Demand{Res: m.ioutRes(pair[0]), PerUnit: frac})
		dem = append(dem, Demand{Res: m.iinRes(pair[1]), PerUnit: frac})
	}
	return FlowStep{
		Units:   bytes,
		Demands: dem,
		RateCap: 1 / math.Max(vcpu, decode+rowOvh),
	}
}

// blockFlowStep models one HDFS block transfer: disk on the datanode, the
// wire between datanode and client, a codec on the client, and — for writes
// — the replication pipeline over the datanodes' internal interfaces with a
// disk hit per replica.
func (m *CostModel) blockFlowStep(e Event, scale float64) Step {
	bytes := e.Bytes * scale
	if bytes <= 0 {
		return nil
	}
	codec := m.CPUCost[e.CPUKind]
	var dem []Demand
	if e.Write {
		// Writes are buffered sequential appends: the wire and the
		// replication pipeline bind, not the spindle.
		dem = []Demand{
			{Res: "cpu:" + e.CNode, PerUnit: codec},
			{Res: "out:" + e.CNode, PerUnit: 1},
			{Res: "in:" + e.VNode, PerUnit: 1},
		}
	} else {
		dem = []Demand{
			{Res: "disk:" + e.VNode, PerUnit: 1},
			{Res: "out:" + e.VNode, PerUnit: 1},
			{Res: "in:" + e.CNode, PerUnit: 1},
			{Res: "cpu:" + e.CNode, PerUnit: codec},
		}
	}
	for pair, b := range e.Route {
		frac := b / e.Bytes
		dem = append(dem,
			Demand{Res: "iout:" + pair[0], PerUnit: frac},
			Demand{Res: "iin:" + pair[1], PerUnit: frac},
		)
	}
	cap := 0.0
	if codec > 0 {
		cap = 1 / codec
	}
	return FlowStep{Units: bytes, Demands: dem, RateCap: cap}
}

// loadFlowSteps models a bulk load as two sequential stages per task:
// (1) client-side encode of the task's data (one core), then (2) the
// transfer — the wire into the connected node, a single parse thread there,
// per-row insert work on the INSERT path, hash-routing traffic to segment
// owners over the internal NICs. Node-local COPY (§4.7.3) skips the client
// stage and reads the node's disk instead of the wire.
func (m *CostModel) loadFlowSteps(e Event, scale float64) []Step {
	bytes := e.WireBytes * scale
	if bytes <= 0 {
		return nil
	}
	enc := m.CPUCost[e.EncodeKind]
	parse := m.CPUCost[e.ParseKind]
	rowOvh := 0.0
	if e.ResultRows > 0 {
		rowOvh = m.CPUCost[CPURowOverhead] * e.ResultRows / e.WireBytes
	}
	insert := 0.0
	if e.InsertRows > 0 {
		insert = m.CPUCost[CPUInsertRow] * e.InsertRows / e.WireBytes
	}
	vcpu := parse + insert + rowOvh
	ccpu := enc + rowOvh

	// Disk writes land on the segment owners: the routed fraction on the
	// route targets, the remainder on the connected node.
	var steps []Step
	var dem []Demand
	if e.Local {
		dem = []Demand{
			{Res: "disk:" + e.VNode, PerUnit: 1},
			{Res: "cpu:" + e.VNode, PerUnit: vcpu},
		}
	} else {
		steps = append(steps, FlowStep{
			Units:   bytes,
			Demands: []Demand{{Res: "cpu:" + e.CNode, PerUnit: ccpu}},
			RateCap: 1 / ccpu,
		})
		dem = []Demand{
			{Res: "out:" + e.CNode, PerUnit: 1},
			{Res: "in:" + e.VNode, PerUnit: 1},
			{Res: "cpu:" + e.VNode, PerUnit: vcpu},
		}
	}
	for pair, b := range e.Route {
		frac := b / e.WireBytes
		dem = append(dem,
			Demand{Res: m.ioutRes(pair[0]), PerUnit: frac},
			Demand{Res: m.iinRes(pair[1]), PerUnit: frac},
		)
	}
	// Network COPY parses in parallel inside the server, so the transfer
	// stage has no single-thread cap; node-local file COPY and the per-row
	// INSERT path are single-threaded per session.
	cap := 0.0
	if e.Local || insert > 0 {
		cap = 1 / vcpu
	}
	steps = append(steps, FlowStep{
		Units:   bytes,
		Demands: dem,
		RateCap: cap,
	})
	return steps
}

// SerialSeconds estimates how long a single record's events take when run
// alone on the system (no contention): the driver-side setup/teardown work
// the benchmarks add serially around a job's parallel phase.
func (m *CostModel) SerialSeconds(sys *System, rec *TaskRec, scale float64) float64 {
	total := 0.0
	for _, e := range rec.Events() {
		for _, step := range m.steps(e, scale) {
			switch st := step.(type) {
			case FixedStep:
				total += st.Seconds
			case FlowStep:
				rate := st.RateCap
				for _, d := range st.Demands {
					if d.PerUnit <= 0 {
						continue
					}
					if r := sys.Resource(d.Res); r != nil {
						if c := r.Capacity / d.PerUnit; rate == 0 || c < rate {
							rate = c
						}
					}
				}
				if rate > 0 {
					total += st.Units / rate
				}
			}
		}
	}
	return total
}
