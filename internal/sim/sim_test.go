package sim

import (
	"context"
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFixedStepsSequence(t *testing.T) {
	sys := NewSystem()
	tasks := []*Task{{ID: "a", Steps: []Step{FixedStep{Seconds: 1}, FixedStep{Seconds: 2}}}}
	res, err := Simulate(sys, tasks, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Makespan, 3, 1e-9) {
		t.Errorf("makespan = %v, want 3", res.Makespan)
	}
}

func TestSingleFlowBandwidth(t *testing.T) {
	sys := NewSystem()
	sys.AddResource(Resource{Name: "link", Capacity: 100})
	tasks := []*Task{{ID: "f", Steps: []Step{FlowStep{
		Units:   1000,
		Demands: []Demand{{Res: "link", PerUnit: 1}},
	}}}}
	res, err := Simulate(sys, tasks, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Makespan, 10, 1e-9) {
		t.Errorf("makespan = %v, want 10", res.Makespan)
	}
}

func TestFairSharing(t *testing.T) {
	sys := NewSystem()
	sys.AddResource(Resource{Name: "link", Capacity: 100})
	// Two equal flows share the link: each runs at 50, finishing at 20;
	// total work conserved.
	var tasks []*Task
	for _, id := range []string{"a", "b"} {
		tasks = append(tasks, &Task{ID: id, Steps: []Step{FlowStep{
			Units:   1000,
			Demands: []Demand{{Res: "link", PerUnit: 1}},
		}}})
	}
	res, err := Simulate(sys, tasks, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Makespan, 20, 1e-9) {
		t.Errorf("makespan = %v, want 20", res.Makespan)
	}
}

func TestRateCapLeavesSlack(t *testing.T) {
	sys := NewSystem()
	sys.AddResource(Resource{Name: "link", Capacity: 100})
	// A capped flow (10/s) and an uncapped one: the uncapped flow should
	// get the leftover 90/s under max-min fairness with caps.
	tasks := []*Task{
		{ID: "capped", Steps: []Step{FlowStep{Units: 100, RateCap: 10, Demands: []Demand{{Res: "link", PerUnit: 1}}}}},
		{ID: "big", Steps: []Step{FlowStep{Units: 900, Demands: []Demand{{Res: "link", PerUnit: 1}}}}},
	}
	res, err := Simulate(sys, tasks, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.TaskEnd["capped"], 10, 1e-6) {
		t.Errorf("capped end = %v, want 10", res.TaskEnd["capped"])
	}
	if !almostEq(res.TaskEnd["big"], 10, 1e-6) {
		t.Errorf("big end = %v, want 10 (90/s while capped runs)", res.TaskEnd["big"])
	}
}

func TestMultiResourceBottleneck(t *testing.T) {
	sys := NewSystem()
	sys.AddResource(Resource{Name: "cpu", Capacity: 10})
	sys.AddResource(Resource{Name: "net", Capacity: 100})
	// Flow demands 0.5 cpu per unit: cpu binds at 20 units/s even though the
	// net would allow 100.
	tasks := []*Task{{ID: "f", Steps: []Step{FlowStep{
		Units: 200,
		Demands: []Demand{
			{Res: "net", PerUnit: 1},
			{Res: "cpu", PerUnit: 0.5},
		},
	}}}}
	res, err := Simulate(sys, tasks, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Makespan, 10, 1e-9) {
		t.Errorf("makespan = %v, want 10 (cpu-bound)", res.Makespan)
	}
}

func TestSlotPoolQueueing(t *testing.T) {
	sys := NewSystem()
	sys.AddPool(Pool{Name: "slots", Slots: 2})
	var tasks []*Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, &Task{
			ID: string(rune('a' + i)), Pool: "slots",
			Steps: []Step{FixedStep{Seconds: 5}},
		})
	}
	res, err := Simulate(sys, tasks, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Makespan, 10, 1e-9) {
		t.Errorf("makespan = %v, want 10 (two waves of two)", res.Makespan)
	}
}

func TestUnknownPoolErrors(t *testing.T) {
	sys := NewSystem()
	_, err := Simulate(sys, []*Task{{ID: "x", Pool: "nope", Steps: []Step{FixedStep{Seconds: 1}}}}, Config{})
	if err == nil {
		t.Error("unknown pool should error")
	}
}

func TestUnknownResourceErrors(t *testing.T) {
	sys := NewSystem()
	_, err := Simulate(sys, []*Task{{ID: "x", Steps: []Step{FlowStep{
		Units: 1, Demands: []Demand{{Res: "nope", PerUnit: 1}},
	}}}}, Config{})
	if err == nil {
		t.Error("unknown resource should error")
	}
}

func TestCongestionDegradesCapacity(t *testing.T) {
	run := func(n int, k float64) float64 {
		sys := NewSystem()
		sys.AddResource(Resource{Name: "link", Capacity: 100, CongestionK: k})
		var tasks []*Task
		for i := 0; i < n; i++ {
			tasks = append(tasks, &Task{ID: string(rune('a' + i)), Steps: []Step{FlowStep{
				Units: 100, Demands: []Demand{{Res: "link", PerUnit: 1}},
			}}})
		}
		res, err := Simulate(sys, tasks, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	base := run(4, 0)
	congested := run(4, 0.1)
	if !almostEq(base, 4, 1e-9) {
		t.Errorf("base = %v", base)
	}
	if congested <= base {
		t.Errorf("congestion should slow the run: %v vs %v", congested, base)
	}
	if !almostEq(congested, 4*1.4, 1e-6) {
		t.Errorf("congested = %v, want %v", congested, 4*1.4)
	}
}

func TestUtilizationSampling(t *testing.T) {
	sys := NewSystem()
	sys.AddResource(Resource{Name: "link", Capacity: 100})
	tasks := []*Task{{ID: "f", Steps: []Step{FlowStep{
		Units: 500, Demands: []Demand{{Res: "link", PerUnit: 1}},
	}}}}
	res, err := Simulate(sys, tasks, Config{SampleInterval: 1})
	if err != nil {
		t.Fatal(err)
	}
	util := res.Utilization["link"]
	if len(util) != 5 {
		t.Fatalf("samples = %d, want 5", len(util))
	}
	for _, u := range util {
		if !almostEq(u.Used, 100, 1e-6) {
			t.Errorf("sample at %v: used %v, want 100", u.T, u.Used)
		}
	}
}

func TestTraceRecorderNilSafe(t *testing.T) {
	var tr *Trace
	rec := tr.Task("x", "s0") // nil trace → nil rec
	rec.Fixed(FixedConnect)   // must not panic
	rec.Add(Event{})
	if tr.Tasks() != nil {
		t.Error("nil trace should have no tasks")
	}
}

func TestBuildTasksScaling(t *testing.T) {
	m := DefaultModel()
	tr := NewTrace()
	rec := tr.Task("t1", "s0")
	rec.Add(Event{
		Type: QueryFlowEv, VNode: "v0", CNode: "s0",
		ResultBytes: 1000, ResultRows: 10,
		ScanRows: map[string]float64{"v0": 100},
	})
	tasks := m.BuildTasks(tr, 50)
	if len(tasks) != 1 || len(tasks[0].Steps) != 1 {
		t.Fatalf("tasks = %+v", tasks)
	}
	fs := tasks[0].Steps[0].(FlowStep)
	if fs.Units != 50000 {
		t.Errorf("scaled units = %v, want 50000", fs.Units)
	}
	if tasks[0].Pool != "slots:s0" {
		t.Errorf("pool = %q", tasks[0].Pool)
	}
}

func TestLoadFlowSplitsEncodeAndTransfer(t *testing.T) {
	m := DefaultModel()
	steps := m.steps(Event{
		Type: LoadFlowEv, CNode: "s0", VNode: "v0",
		WireBytes: 1000, EncodeKind: CPUAvroEncode, ParseKind: CPUCopyParse,
	}, 1)
	if len(steps) != 2 {
		t.Fatalf("load flow should be encode+transfer, got %d steps", len(steps))
	}
	enc := steps[0].(FlowStep)
	if len(enc.Demands) != 1 || enc.Demands[0].Res != "cpu:s0" {
		t.Errorf("first step should be client encode: %+v", enc)
	}
}

func TestLocalLoadSkipsNetwork(t *testing.T) {
	m := DefaultModel()
	steps := m.steps(Event{
		Type: LoadFlowEv, CNode: "v0", VNode: "v0", Local: true,
		WireBytes: 1000, EncodeKind: CPUCSVFormat, ParseKind: CPUCSVParse,
	}, 1)
	if len(steps) != 1 {
		t.Fatalf("local load should be a single stage, got %d", len(steps))
	}
	for _, d := range steps[0].(FlowStep).Demands {
		if d.Res == "out:v0" || d.Res == "in:v0" {
			t.Errorf("local load must not touch the network: %+v", d)
		}
	}
}

func TestSerialSeconds(t *testing.T) {
	m := DefaultModel()
	sys := m.BuildSystem(Topology{VerticaNodes: 1, SparkNodes: 1})
	tr := NewTrace()
	rec := tr.Task("driver", "")
	rec.Fixed(FixedConnect)
	rec.Fixed(FixedTableDDL)
	got := m.SerialSeconds(sys, rec, 1)
	want := m.FixedCost[FixedConnect] + m.FixedCost[FixedTableDDL]
	if !almostEq(got, want, 1e-9) {
		t.Errorf("SerialSeconds = %v, want %v", got, want)
	}
}

func TestSystemTopologyResources(t *testing.T) {
	m := DefaultModel()
	sys := m.BuildSystem(Topology{VerticaNodes: 2, SparkNodes: 3, HDFSNodes: 1})
	for _, name := range []string{"cpu:v0", "cpu:v1", "out:v0", "iin:v1", "disk:v0", "cpu:s2", "disk:h0", "in:h0"} {
		if sys.Resource(name) == nil {
			t.Errorf("missing resource %q", name)
		}
	}
	if sys.Resource("cpu:v2") != nil {
		t.Error("unexpected resource cpu:v2")
	}
}

func TestSingleNetworkMapsInternalTraffic(t *testing.T) {
	m := DefaultModel()
	m.SingleNetwork = true
	steps := m.steps(Event{
		Type: QueryFlowEv, VNode: "v0", CNode: "s0",
		ResultBytes: 100, ResultRows: 1,
		Shuffle: map[[2]string]float64{{"v1", "v0"}: 50},
	}, 1)
	fs := steps[0].(FlowStep)
	foundShared := false
	for _, d := range fs.Demands {
		if d.Res == "iout:v1" || d.Res == "iin:v0" {
			t.Errorf("single-network mode must not use internal NICs: %+v", d)
		}
		if d.Res == "out:v1" || d.Res == "in:v0" {
			foundShared = true
		}
	}
	if !foundShared {
		t.Error("shuffle demand should land on shared NICs")
	}
}

// TestTaskContext: the task record rides its own context value; an untraced
// context carries none, and a nil record leaves the context as it was.
func TestTaskContext(t *testing.T) {
	bg := context.Background()
	if TaskFrom(bg) != nil || WithTask(bg, nil) != bg {
		t.Fatal("an untraced context must carry no task record")
	}
	rec := NewTrace().Task("t", "s0")
	TaskFrom(WithTask(bg, rec)).Fixed(FixedConnect)
	if ev := rec.Events(); len(ev) != 1 || ev[0].FixedKind != FixedConnect {
		t.Fatalf("events = %+v, want the one connect", ev)
	}
}
