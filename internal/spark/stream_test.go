package spark

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// chunkedInts is an RDD of parts partitions, partition p holding
// p*1000 .. p*1000+per-1 in chunks of chunk elements, built fresh per chunk.
func chunkedInts(sc *Context, parts, per, chunk int) *RDD[int] {
	return NewChunkedRDD(sc, parts, func(_ *TaskContext, p int, _ bool, yield func([]int) bool) error {
		for lo := 0; lo < per; lo += chunk {
			c := make([]int, 0, chunk)
			for i := lo; i < min(lo+chunk, per); i++ {
				c = append(c, p*1000+i)
			}
			if !yield(c) {
				return nil
			}
		}
		return nil
	})
}

func wantInts(parts, per int) []int {
	var want []int
	for p := 0; p < parts; p++ {
		for i := 0; i < per; i++ {
			want = append(want, p*1000+i)
		}
	}
	return want
}

// TestNarrowChainPipelines: Map → Filter → MapPartitions run inside one task
// chunk by chunk, so element k reaches MapPartitions' function before the
// source produces element k+1.
func TestNarrowChainPipelines(t *testing.T) {
	sc := testCtx(nil)
	var (
		mu  sync.Mutex
		log []string
	)
	note := func(s string) {
		mu.Lock()
		log = append(log, s)
		mu.Unlock()
	}
	const n = 12
	src := NewChunkedRDD(sc, 1, func(_ *TaskContext, _ int, _ bool, yield func([]int) bool) error {
		for k := 0; k < n; k++ {
			note(fmt.Sprint("produce ", k))
			if !yield([]int{k}) {
				return nil
			}
		}
		return nil
	})
	kept := Map(src, func(v int) int { return 2 * v }).Filter(func(v int) bool { return v%4 == 0 })
	out := MapPartitions(kept, func(_ *TaskContext, _ int, in Stream[int], yield func([]int) bool) error {
		return in.Each(func(c []int) bool {
			for _, v := range c {
				note(fmt.Sprint("consume ", v/2))
			}
			return yield([]int{len(c)})
		})
	})
	got, err := out.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 1, 1, 1, 1, 1}; !slices.Equal(got, want) {
		t.Fatalf("MapPartitions saw chunks of %v, want %v", got, want)
	}
	at := func(s string) int { return slices.Index(log, s) }
	for k := 0; k < n; k += 2 {
		c, next := at(fmt.Sprint("consume ", k)), at(fmt.Sprint("produce ", k+1))
		if c < 0 || (k+1 < n && c > next) {
			t.Fatalf("element %d consumed at %d, element %d produced at %d: %v", k, c, k+1, next, log)
		}
	}
	for k := 1; k < n; k += 2 {
		if at(fmt.Sprint("consume ", k)) >= 0 {
			t.Fatalf("filtered element %d consumed: %v", k, log)
		}
	}
}

// TestChunkedActionsMatchSlices: over a many-chunk source, Collect, Count,
// Aggregate and a cached RDD give what the same data held as slices gives.
func TestChunkedActionsMatchSlices(t *testing.T) {
	sc := testCtx(nil)
	const parts, per = 5, 333
	want := wantInts(parts, per)
	for _, chunk := range []int{1, 7, 64, per, 1000} {
		rdd := chunkedInts(sc, parts, per, chunk)
		got, err := rdd.Collect()
		if err != nil || !slices.Equal(got, want) || cap(got) != len(got) {
			t.Fatalf("chunk %d: Collect = %d elements (cap %d), %v; want %d", chunk, len(got), cap(got), err, len(want))
		}
		if n, err := rdd.Count(); err != nil || n != int64(len(want)) {
			t.Fatalf("chunk %d: Count = %d, %v", chunk, n, err)
		}
		sum, err := Aggregate(rdd, func() int { return 0 }, func(a, v int) int { return a + v }, func(a, b int) int { return a + b })
		wantSum := 0
		for _, v := range want {
			wantSum += v
		}
		if err != nil || sum != wantSum {
			t.Fatalf("chunk %d: Aggregate = %d, %v; want %d", chunk, sum, err, wantSum)
		}
		for _, n := range []int{1, 2, 3, 8, 11} {
			got, err := rdd.Coalesce(n).Collect()
			if err != nil || !slices.Equal(got, want) {
				t.Fatalf("chunk %d: Coalesce(%d).Collect = %d elements, %v", chunk, n, len(got), err)
			}
		}
	}
}

// TestCachedChunksComputeOnce: a cached chunked RDD computes each partition
// once, whichever action computes it first, and serves its chunks after.
func TestCachedChunksComputeOnce(t *testing.T) {
	sc := testCtx(nil)
	var computes atomic.Int32
	inner := chunkedInts(sc, 3, 50, 8)
	rdd := NewChunkedRDD(sc, 3, func(tc *TaskContext, p int, reuse bool, yield func([]int) bool) error {
		computes.Add(1)
		if reuse {
			t.Errorf("partition %d of a cached RDD computed with reuse", p)
		}
		return inner.compute(tc, p, reuse, yield)
	}).Cache()
	if n, err := rdd.Count(); err != nil || n != 150 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	got, err := rdd.Collect()
	if err != nil || !slices.Equal(got, wantInts(3, 50)) {
		t.Fatalf("Collect after Count = %v, %v", got, err)
	}
	if computes.Load() != 3 {
		t.Fatalf("cached RDD computed %d partitions, want 3", computes.Load())
	}
}

// TestOneSliceSourceReachesCollectUncopied: a partition its source holds as
// one slice — NewRDD's, Parallelize's, a cached one — reaches Collect's
// gather as that very slice.
func TestOneSliceSourceReachesCollectUncopied(t *testing.T) {
	sc := testCtx(nil)
	tc := &TaskContext{sc: sc}
	held := []int{4, 5, 6, 7}
	same := func(what string, r *RDD[int], want []int) {
		t.Helper()
		chunks, err := r.gather(tc, 0)
		if err != nil || len(chunks) != 1 || len(chunks[0]) != len(want) || &chunks[0][0] != &want[0] {
			t.Fatalf("%s: gather = %v, %v; want the source's slice itself", what, chunks, err)
		}
	}
	same("NewRDD", NewRDD(sc, 1, func(*TaskContext, int) ([]int, error) { return held, nil }), held)
	same("Parallelize", Parallelize(sc, held, 1), held)
	cached := Map(Parallelize(sc, held, 1), func(v int) int { return v }).Cache()
	first, err := cached.gather(tc, 0)
	if err != nil || len(first) != 1 {
		t.Fatalf("cached gather = %v, %v", first, err)
	}
	same("cached", cached, first[0])
}

// TestBorrowLetsSourcesReuse: Count and Borrow ask the source for reuse,
// Collect, Aggregate and Each do not, and Map and Filter pass the request on.
func TestBorrowLetsSourcesReuse(t *testing.T) {
	sc := testCtx(nil)
	var asked sync.Map // "how" -> reuse
	src := func(how string) *RDD[int] {
		return NewChunkedRDD(sc, 2, func(_ *TaskContext, _ int, reuse bool, yield func([]int) bool) error {
			asked.Store(how, reuse)
			yield([]int{1, 2, 3})
			return nil
		})
	}
	chain := func(how string) *RDD[int] {
		return Map(src(how), func(v int) int { return v }).Filter(func(int) bool { return true }).Coalesce(1)
	}
	if _, err := chain("count").Count(); err != nil {
		t.Fatal(err)
	}
	if _, err := chain("collect").Collect(); err != nil {
		t.Fatal(err)
	}
	if _, err := Aggregate(chain("aggregate"), func() int { return 0 }, func(a, v int) int { return a + v }, func(a, b int) int { return a + b }); err != nil {
		t.Fatal(err)
	}
	for how, borrow := range map[string]bool{"each": false, "borrow": true} {
		err := chain(how).ForeachPartition(func(_ *TaskContext, in Stream[int]) error {
			if borrow {
				return in.Borrow(func([]int) bool { return true })
			}
			return in.Each(func([]int) bool { return true })
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for how, want := range map[string]bool{"count": true, "borrow": true, "collect": false, "aggregate": false, "each": false} {
		if got, _ := asked.Load(how); got != want {
			t.Errorf("%s: source asked reuse=%v, want %v", how, got, want)
		}
	}
}

// TestStreamStopsWhenYieldDeclines: a receiver that returns false ends the
// whole chain, across a Coalesce of several parents too.
func TestStreamStopsWhenYieldDeclines(t *testing.T) {
	sc := testCtx(nil)
	var produced atomic.Int32
	src := NewChunkedRDD(sc, 4, func(_ *TaskContext, p int, _ bool, yield func([]int) bool) error {
		for k := 0; k < 10; k++ {
			produced.Add(1)
			if !yield([]int{p, k}) {
				return nil
			}
		}
		return nil
	})
	err := Map(src, func(v int) int { return v }).Coalesce(1).ForeachPartition(func(_ *TaskContext, in Stream[int]) error {
		seen := 0
		return in.Each(func([]int) bool {
			seen++
			return seen < 3
		})
	})
	if err != nil || produced.Load() != 3 {
		t.Fatalf("produced %d chunks (err %v), want 3", produced.Load(), err)
	}
}

// TestFailureMidStreamRetriesWhole: a source failing after some chunks fails
// its task attempt; the retry streams the partition from its start, and what
// the failed attempt yielded is not in the result.
func TestFailureMidStreamRetriesWhole(t *testing.T) {
	sc := testCtx(nil)
	inner := chunkedInts(sc, 3, 40, 6)
	rdd := NewChunkedRDD(sc, 3, func(tc *TaskContext, p int, reuse bool, yield func([]int) bool) error {
		if p != 1 || tc.Attempt > 0 {
			return inner.compute(tc, p, reuse, yield)
		}
		sent := 0
		err := inner.compute(tc, p, reuse, func(c []int) bool {
			sent += len(c)
			return sent < 20 && yield(c)
		})
		if err == nil {
			err = errors.New("source lost after 20 elements")
		}
		return err
	})
	for _, r := range []*RDD[int]{rdd, Map(rdd, func(v int) int { return v })} {
		got, err := r.Collect()
		if err != nil || !slices.Equal(got, wantInts(3, 40)) {
			t.Fatalf("Collect = %v, %v", got, err)
		}
		if n, err := r.Count(); err != nil || n != 120 {
			t.Fatalf("Count = %d, %v", n, err)
		}
	}
}
