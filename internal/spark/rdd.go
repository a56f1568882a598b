package spark

import (
	"fmt"
	"sync"
)

// RDD is an immutable, partitioned, lazily evaluated dataset: each
// partition's contents are (re)computable from the compute function —
// Spark's lineage-based fault tolerance (§2.1.2). Transformations build new
// RDDs; actions (Collect, Count, Aggregate, ForeachPartition) run jobs.
//
// A partition is computed as a stream of chunks (Chunks), the form Spark's
// partition iterators take: Map, Filter, MapPartitions and Coalesce compose
// streams, so a chain of them runs chunk by chunk inside one task, and only
// what keeps elements (Collect, Cache) ever holds a whole partition.
type RDD[T any] struct {
	sc      *Context
	nParts  int
	compute Chunks[T]

	mu     sync.Mutex
	cache  bool
	cached [][][]T // partition -> its chunks; nil until computed under Cache
}

// Chunks computes partition p of an RDD as a stream: it calls yield with each
// chunk in order and, once yield returns false, stops and returns nil. A
// chunk is read-only to whoever receives it. When reuse is false every chunk,
// and everything its elements reference, stays valid for as long as the
// receiver keeps it. When reuse is true the receiver is done with a chunk once
// yield returns, so the source may overwrite that memory for its next chunk.
type Chunks[T any] func(tc *TaskContext, p int, reuse bool, yield func([]T) bool) error

// NewChunkedRDD builds an RDD whose partitions the compute function streams.
func NewChunkedRDD[T any](sc *Context, nParts int, compute Chunks[T]) *RDD[T] {
	return &RDD[T]{sc: sc, nParts: nParts, compute: compute}
}

// NewRDD builds an RDD from a per-partition compute function that returns
// the partition as one slice, which the stream hands on as its one chunk.
func NewRDD[T any](sc *Context, nParts int, compute func(tc *TaskContext, p int) ([]T, error)) *RDD[T] {
	return NewChunkedRDD(sc, nParts, func(tc *TaskContext, p int, _ bool, yield func([]T) bool) error {
		part, err := compute(tc, p)
		if err == nil && len(part) > 0 {
			yield(part)
		}
		return err
	})
}

// Parallelize distributes a slice across nParts partitions. Each partition
// is a sub-slice of data, not a copy: data must not change while the RDD is
// in use.
func Parallelize[T any](sc *Context, data []T, nParts int) *RDD[T] {
	if nParts <= 0 {
		nParts = sc.conf.NumExecutors
	}
	n := len(data)
	return NewRDD(sc, nParts, func(_ *TaskContext, p int) ([]T, error) {
		lo, hi := n*p/nParts, n*(p+1)/nParts
		return data[lo:hi:hi], nil
	})
}

// Context returns the owning context.
func (r *RDD[T]) Context() *Context { return r.sc }

// NumPartitions returns the partition count.
func (r *RDD[T]) NumPartitions() int { return r.nParts }

// Cache marks the RDD for materialization: the first task to compute a
// partition in full keeps its chunks, and every later one streams those.
func (r *RDD[T]) Cache() *RDD[T] {
	r.mu.Lock()
	r.cache = true
	r.mu.Unlock()
	return r
}

// Stream is a task's handle on one partition of an RDD. Each call to Each or
// Borrow computes the partition anew, from its lineage or its cache.
type Stream[T any] struct {
	r  *RDD[T]
	tc *TaskContext
	p  int
}

// Each calls yield with the partition's chunks in order until yield returns
// false; the chunks are the caller's to keep.
func (s Stream[T]) Each(yield func([]T) bool) error { return s.r.stream(s.tc, s.p, false, yield) }

// Borrow is Each for a caller that is done with each chunk, and with
// everything its elements reference, when yield returns: the source may
// reuse that memory for its next chunk.
func (s Stream[T]) Borrow(yield func([]T) bool) error { return s.r.stream(s.tc, s.p, true, yield) }

// stream computes (or serves from cache) one partition.
func (r *RDD[T]) stream(tc *TaskContext, p int, reuse bool, yield func([]T) bool) error {
	r.mu.Lock()
	cache := r.cache
	var kept [][]T
	if r.cached != nil {
		kept = r.cached[p]
	}
	r.mu.Unlock()
	switch {
	case kept != nil:
		for _, c := range kept {
			if !yield(c) {
				break
			}
		}
		return nil
	case !cache:
		return r.compute(tc, p, reuse, yield)
	}
	// A cached partition is kept as its chunks arrive, and stored once it is
	// whole: a receiver that stops early leaves it to the next task.
	kept = make([][]T, 0, 1)
	whole := true
	err := r.compute(tc, p, false, func(c []T) bool {
		kept = append(kept, c)
		whole = yield(c)
		return whole
	})
	if err == nil && whole {
		r.mu.Lock()
		if r.cached == nil {
			r.cached = make([][][]T, r.nParts)
		}
		if r.cached[p] == nil {
			r.cached[p] = kept
		}
		r.mu.Unlock()
	}
	return err
}

// Map applies f to every element, a chunk at a time.
func Map[T, U any](r *RDD[T], f func(T) U) *RDD[U] {
	return NewChunkedRDD(r.sc, r.nParts, func(tc *TaskContext, p int, reuse bool, yield func([]U) bool) error {
		var out []U
		return r.stream(tc, p, reuse, func(in []T) bool {
			if !reuse || cap(out) < len(in) {
				out = make([]U, len(in))
			}
			out = out[:len(in)]
			for i, v := range in {
				out[i] = f(v)
			}
			return yield(out)
		})
	})
}

// Filter keeps elements where pred is true, a chunk at a time.
func (r *RDD[T]) Filter(pred func(T) bool) *RDD[T] {
	return NewChunkedRDD(r.sc, r.nParts, func(tc *TaskContext, p int, reuse bool, yield func([]T) bool) error {
		var out []T
		return r.stream(tc, p, reuse, func(in []T) bool {
			if reuse {
				out = out[:0]
			} else {
				out = nil
			}
			for _, v := range in {
				if pred(v) {
					out = append(out, v)
				}
			}
			return len(out) == 0 || yield(out)
		})
	})
}

// MapPartitions applies f to whole partitions: f reads its partition from in
// and yields its output's chunks, which are the receiver's to keep, stopping
// when yield returns false.
func MapPartitions[T, U any](r *RDD[T], f func(tc *TaskContext, p int, in Stream[T], yield func([]U) bool) error) *RDD[U] {
	return NewChunkedRDD(r.sc, r.nParts, func(tc *TaskContext, p int, _ bool, yield func([]U) bool) error {
		return f(tc, p, Stream[T]{r: r, tc: tc, p: p}, yield)
	})
}

// Coalesce reduces (or increases) the partition count. Like Spark's
// coalesce, reducing does not shuffle: new partition i streams a contiguous
// group of old partitions — exactly what S2V's setup phase does to hit the
// requested parallelism (§3.2).
func (r *RDD[T]) Coalesce(n int) *RDD[T] {
	if n <= 0 || n == r.nParts {
		return r
	}
	old := r.nParts
	if n < old {
		return NewChunkedRDD(r.sc, n, func(tc *TaskContext, p int, reuse bool, yield func([]T) bool) error {
			more := true
			for q := old * p / n; q < old*(p+1)/n && more; q++ {
				if err := r.stream(tc, q, reuse, func(c []T) bool {
					more = yield(c)
					return more
				}); err != nil {
					return err
				}
			}
			return nil
		})
	}
	// Growing requires a split (a shuffle in real Spark): the new partitions
	// drawing from one old partition split its elements evenly, so each holds
	// the old partition's chunks and hands on its share of them.
	return NewChunkedRDD(r.sc, n, func(tc *TaskContext, p int, _ bool, yield func([]T) bool) error {
		src := p * old / n
		var chunks [][]T
		total := 0
		if err := r.stream(tc, src, false, func(c []T) bool {
			chunks, total = append(chunks, c), total+len(c)
			return true
		}); err != nil {
			return err
		}
		var siblings []int
		for q := 0; q < n; q++ {
			if q*old/n == src {
				siblings = append(siblings, q)
			}
		}
		k := len(siblings)
		idx := 0
		for i, q := range siblings {
			if q == p {
				idx = i
				break
			}
		}
		lo, hi := total*idx/k, total*(idx+1)/k
		off := 0
		for _, c := range chunks {
			a, b := max(lo-off, 0), min(hi-off, len(c))
			off += len(c)
			if a < b && !yield(c[a:b:b]) {
				return nil
			}
		}
		return nil
	})
}

// Collect materializes the whole RDD on the driver.
func (r *RDD[T]) Collect() ([]T, error) {
	parts, err := RunJob(r.sc, r.nParts, func(tc *TaskContext) ([][]T, error) {
		return r.gather(tc, tc.PartitionID)
	})
	if err != nil {
		return nil, err
	}
	var chunks [][]T
	for _, p := range parts {
		chunks = append(chunks, p...)
	}
	return concat(chunks), nil
}

// gather keeps partition p's non-empty chunks as they arrive: a partition
// its source holds as one slice is that slice, not a copy.
func (r *RDD[T]) gather(tc *TaskContext, p int) ([][]T, error) {
	var chunks [][]T
	err := r.stream(tc, p, false, func(c []T) bool {
		if len(c) > 0 {
			chunks = append(chunks, c)
		}
		return true
	})
	return chunks, err
}

// concat copies chunks, in order, into one slice allocated at its final size.
// It returns nil when the chunks hold nothing.
func concat[T any](chunks [][]T) []T {
	n := 0
	for _, c := range chunks {
		n += len(c)
	}
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}

// Count returns the number of elements.
func (r *RDD[T]) Count() (int64, error) {
	counts, err := RunJob(r.sc, r.nParts, func(tc *TaskContext) (int64, error) {
		n := int64(0)
		err := r.stream(tc, tc.PartitionID, true, func(c []T) bool {
			n += int64(len(c))
			return true
		})
		return n, err
	})
	if err != nil {
		return 0, err
	}
	total := int64(0)
	for _, c := range counts {
		total += c
	}
	return total, nil
}

// Aggregate folds every partition with seqOp from zero, then merges the
// per-partition results with combOp on the driver — the pattern MLlib's
// gradient computations use.
func Aggregate[T, A any](r *RDD[T], zero func() A, seqOp func(A, T) A, combOp func(A, A) A) (A, error) {
	parts, err := RunJob(r.sc, r.nParts, func(tc *TaskContext) (A, error) {
		acc := zero()
		err := r.stream(tc, tc.PartitionID, false, func(c []T) bool {
			for _, v := range c {
				acc = seqOp(acc, v)
			}
			return true
		})
		return acc, err
	})
	if err != nil {
		var a A
		return a, err
	}
	acc := zero()
	for _, p := range parts {
		acc = combOp(acc, p)
	}
	return acc, nil
}

// ForeachPartition runs f once per partition, for side effects, handing it
// the partition as a stream — the action that drives S2V's per-task save
// work.
func (r *RDD[T]) ForeachPartition(f func(tc *TaskContext, in Stream[T]) error) error {
	_, err := RunJob(r.sc, r.nParts, func(tc *TaskContext) (struct{}, error) {
		return struct{}{}, f(tc, Stream[T]{r: r, tc: tc, p: tc.PartitionID})
	})
	return err
}

// String describes the RDD.
func (r *RDD[T]) String() string {
	return fmt.Sprintf("RDD[%d partitions]", r.nParts)
}
