package spark

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vsfabric/internal/types"
)

func testCtx(inj *FailureInjector) *Context {
	return NewContext(Conf{NumExecutors: 4, CoresPerExecutor: 2, MaxTaskFailures: 3, Speculation: inj != nil, Injector: inj})
}

func TestParallelizeCollect(t *testing.T) {
	sc := testCtx(nil)
	data := make([]int, 100)
	for i := range data {
		data[i] = i
	}
	rdd := Parallelize(sc, data, 7)
	got, err := rdd.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("collected %d", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
	}
}

// TestCollectSizesResultOnce: Collect returns the partitions' elements in
// partition order in one slice allocated at its final size, and nil when no
// partition holds anything.
func TestCollectSizesResultOnce(t *testing.T) {
	sc := testCtx(nil)
	sizes := []int{3, 0, 17, 1, 0, 9}
	rdd := NewRDD(sc, len(sizes), func(_ *TaskContext, p int) ([]int, error) {
		out := make([]int, sizes[p], sizes[p]+5) // spare capacity Collect must not inherit
		for i := range out {
			out[i] = p*100 + i
		}
		return out, nil
	})
	got, err := rdd.Collect()
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for p, n := range sizes {
		for i := 0; i < n; i++ {
			want = append(want, p*100+i)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Collect = %v, want %v", got, want)
	}
	if cap(got) != len(got) {
		t.Fatalf("Collect: len %d, cap %d", len(got), cap(got))
	}
	empty := NewRDD(sc, 3, func(*TaskContext, int) ([]int, error) { return []int{}, nil })
	if got, err := empty.Collect(); err != nil || got != nil {
		t.Fatalf("Collect of empty partitions = %#v, %v; want nil", got, err)
	}
}

func TestMapFilterCount(t *testing.T) {
	sc := testCtx(nil)
	rdd := Parallelize(sc, []int{1, 2, 3, 4, 5, 6}, 3)
	doubled := Map(rdd, func(v int) int { return v * 2 })
	big := doubled.Filter(func(v int) bool { return v > 6 })
	n, err := big.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 { // 8, 10, 12
		t.Errorf("count = %d", n)
	}
}

func TestAggregate(t *testing.T) {
	sc := testCtx(nil)
	rdd := Parallelize(sc, []int{1, 2, 3, 4, 5}, 3)
	sum, err := Aggregate(rdd,
		func() int { return 0 },
		func(a, v int) int { return a + v },
		func(a, b int) int { return a + b },
	)
	if err != nil || sum != 15 {
		t.Errorf("sum = %d, %v", sum, err)
	}
}

func TestCoalesceDownPreservesAll(t *testing.T) {
	sc := testCtx(nil)
	data := make([]int, 97)
	for i := range data {
		data[i] = i
	}
	for _, n := range []int{1, 2, 5} {
		got, err := Parallelize(sc, data, 16).Coalesce(n).Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 97 {
			t.Errorf("coalesce(%d): %d elements", n, len(got))
		}
	}
}

func TestCoalesceUpPreservesAll(t *testing.T) {
	sc := testCtx(nil)
	data := make([]int, 50)
	for i := range data {
		data[i] = i
	}
	got, err := Parallelize(sc, data, 2).Coalesce(8).Collect()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("duplicate %d after repartition", v)
		}
		seen[v] = true
	}
	if len(seen) != 50 {
		t.Errorf("repartition lost elements: %d", len(seen))
	}
}

func TestTaskRetry(t *testing.T) {
	sc := testCtx(nil)
	var attempts atomic.Int32
	out, err := RunJob(sc, 4, func(tc *TaskContext) (int, error) {
		if tc.PartitionID == 2 && tc.Attempt == 0 {
			attempts.Add(1)
			return 0, errors.New("flaky")
		}
		return tc.PartitionID, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts.Load() != 1 || out[2] != 2 {
		t.Errorf("retry misbehaved: attempts=%d out=%v", attempts.Load(), out)
	}
}

func TestTaskRetryExhausted(t *testing.T) {
	sc := testCtx(nil)
	_, err := RunJob(sc, 2, func(tc *TaskContext) (int, error) {
		if tc.PartitionID == 1 {
			return 0, errors.New("always fails")
		}
		return 0, nil
	})
	if err == nil {
		t.Fatal("job should fail after MaxTaskFailures")
	}
}

func TestJobKill(t *testing.T) {
	inj := NewFailureInjector()
	inj.KillJobAt(0, "cp")
	sc := testCtx(inj)
	_, err := RunJob(sc, 4, func(tc *TaskContext) (int, error) {
		if err := tc.Checkpoint("cp"); err != nil {
			return 0, err
		}
		return 1, nil
	})
	if !errors.Is(err, ErrJobKilled) {
		t.Errorf("err = %v", err)
	}
	sc.ResetKill()
	if _, err := RunJob(sc, 2, func(tc *TaskContext) (int, error) { return 1, nil }); err != nil {
		t.Errorf("after ResetKill jobs should run: %v", err)
	}
}

func TestSpeculativeDuplicates(t *testing.T) {
	inj := NewFailureInjector()
	inj.Speculate(1)
	sc := testCtx(inj)
	var runs atomic.Int32
	out, err := RunJob(sc, 3, func(tc *TaskContext) (int, error) {
		if tc.PartitionID == 1 {
			runs.Add(1)
		}
		return tc.PartitionID * 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 2 {
		t.Errorf("speculative partition ran %d times, want 2 (side effects duplicated)", runs.Load())
	}
	if out[1] != 10 {
		t.Errorf("result deduplicated wrongly: %v", out)
	}
}

func TestInjectorCheckpointMatch(t *testing.T) {
	inj := NewFailureInjector()
	inj.FailTaskAt(0, 0, "mid", 1)
	sc := testCtx(inj)
	var failed atomic.Int32
	_, err := RunJob(sc, 2, func(tc *TaskContext) (int, error) {
		if err := tc.Checkpoint("mid"); err != nil {
			failed.Add(1)
			return 0, err
		}
		return 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if failed.Load() != 1 {
		t.Errorf("checkpoint fired %d times", failed.Load())
	}
	if len(inj.Log()) != 1 {
		t.Errorf("log = %v", inj.Log())
	}
}

// A hold orders attempts across tasks: task 0 waits at its checkpoint until
// task 1's attempt is over, so task 1 finishes first every run; a release
// at the checkpoint a failure also fires at happens before the failure.
func TestInjectorHoldAndRelease(t *testing.T) {
	inj := NewFailureInjector()
	inj.HoldAt(0, 0, "mid", "task1 over").ReleaseAt(1, 0, TaskEnd, "task1 over")
	inj.HoldAt(2, -1, "mid", "task3 failing").ReleaseAt(3, 0, "mid", "task3 failing").FailTaskAt(3, 0, "mid", 1)
	sc := testCtx(inj)
	var (
		mu    sync.Mutex
		order []int
	)
	_, err := RunJob(sc, 4, func(tc *TaskContext) (int, error) {
		if err := tc.Checkpoint("mid"); err != nil {
			return 0, err
		}
		mu.Lock()
		order = append(order, tc.PartitionID)
		mu.Unlock()
		return 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pos := map[int]int{}
	for i, p := range order {
		pos[p] = i
	}
	if len(order) != 4 || pos[1] > pos[0] {
		t.Errorf("completion order %v: task 0 must wait for task 1", order)
	}
	log := strings.Join(inj.Log(), " ")
	for _, want := range []string{"hold task1 over mid@task0.attempt0", "release task1 over spark.task_end@task1.attempt0", "release task3 failing mid@task3.attempt0 mid@task3.attempt0"} {
		if !strings.Contains(log, want) {
			t.Errorf("log %q lacks %q", log, want)
		}
	}
}

func TestCachedRDDComputesOnce(t *testing.T) {
	sc := testCtx(nil)
	var computes atomic.Int32
	rdd := NewRDD(sc, 2, func(_ *TaskContext, p int) ([]int, error) {
		computes.Add(1)
		return []int{p}, nil
	}).Cache()
	if _, err := rdd.Collect(); err != nil {
		t.Fatal(err)
	}
	if _, err := rdd.Collect(); err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 2 {
		t.Errorf("cached RDD computed %d times, want 2 (once per partition)", computes.Load())
	}
}

// ---------- DataFrame ----------

var dfSchema = types.NewSchema(
	types.Column{Name: "id", T: types.Int64},
	types.Column{Name: "x", T: types.Float64},
)

func makeDF(sc *Context, n, parts int) *DataFrame {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.IntValue(int64(i)), types.FloatValue(float64(i))}
	}
	return CreateDataFrame(sc, dfSchema, rows, parts)
}

func TestDataFrameSelectWhere(t *testing.T) {
	sc := testCtx(nil)
	df := makeDF(sc, 20, 4)
	sel, err := df.Select("x")
	if err != nil {
		t.Fatal(err)
	}
	if sel.Schema().NumCols() != 1 {
		t.Errorf("select schema = %v", sel.Schema())
	}
	rows, err := sel.Collect()
	if err != nil || len(rows) != 20 || len(rows[0]) != 1 {
		t.Fatalf("select rows: %v %v", rows, err)
	}
	n, err := df.Where(GreaterThanOrEqual{Col: "id", Value: types.IntValue(15)}).Count()
	if err != nil || n != 5 {
		t.Errorf("where count = %d, %v", n, err)
	}
}

func TestDataFrameRepartition(t *testing.T) {
	sc := testCtx(nil)
	df := makeDF(sc, 30, 6)
	rp, err := df.Repartition(2)
	if err != nil {
		t.Fatal(err)
	}
	np, _ := rp.NumPartitions()
	if np != 2 {
		t.Errorf("partitions = %d", np)
	}
	n, _ := rp.Count()
	if n != 30 {
		t.Errorf("count after repartition = %d", n)
	}
}

func TestEvalFilterSemantics(t *testing.T) {
	s := dfSchema
	row := types.Row{types.IntValue(5), types.FloatValue(2.5)}
	cases := []struct {
		f    Filter
		want bool
	}{
		{EqualTo{Col: "id", Value: types.IntValue(5)}, true},
		{GreaterThan{Col: "id", Value: types.IntValue(5)}, false},
		{GreaterThanOrEqual{Col: "id", Value: types.IntValue(5)}, true},
		{LessThan{Col: "x", Value: types.FloatValue(3)}, true},
		{LessThanOrEqual{Col: "x", Value: types.FloatValue(2)}, false},
		{IsNull{Col: "id"}, false},
		{IsNotNull{Col: "id"}, true},
	}
	for _, c := range cases {
		if got := EvalFilter(c.f, row, &s); got != c.want {
			t.Errorf("%+v = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestSourceRegistry(t *testing.T) {
	if _, ok := LookupSource("no.such.source"); ok {
		t.Error("lookup of unregistered source should fail")
	}
	sc := testCtx(nil)
	if _, err := sc.Read().Format("no.such.source").Load(); err == nil {
		t.Error("load from unregistered source should fail")
	}
	df := makeDF(sc, 1, 1)
	if err := df.Write().Format("no.such.source").Save(); err == nil {
		t.Error("save to unregistered source should fail")
	}
}

func TestExecutorPlacementDeterministic(t *testing.T) {
	sc := testCtx(nil)
	for p := 0; p < 8; p++ {
		want := fmt.Sprintf("s%d", p%4)
		if got := sc.ExecutorFor(p); got != want {
			t.Errorf("ExecutorFor(%d) = %q, want %q", p, got, want)
		}
	}
}
