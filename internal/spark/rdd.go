package spark

import (
	"fmt"
	"sync"
)

// RDD is an immutable, partitioned, lazily evaluated dataset: each
// partition's contents are (re)computable from the compute function —
// Spark's lineage-based fault tolerance (§2.1.2). Transformations build new
// RDDs; actions (Collect, Count, Reduce, ForeachPartition) run jobs.
type RDD[T any] struct {
	sc      *Context
	nParts  int
	compute func(tc *TaskContext, p int) ([]T, error)

	mu     sync.Mutex
	cached [][]T // non-nil once Cache()+action has materialized
	cache  bool
}

// NewRDD builds an RDD from a per-partition compute function.
func NewRDD[T any](sc *Context, nParts int, compute func(tc *TaskContext, p int) ([]T, error)) *RDD[T] {
	return &RDD[T]{sc: sc, nParts: nParts, compute: compute}
}

// Parallelize distributes a slice across nParts partitions.
func Parallelize[T any](sc *Context, data []T, nParts int) *RDD[T] {
	if nParts <= 0 {
		nParts = sc.conf.NumExecutors
	}
	n := len(data)
	return NewRDD(sc, nParts, func(_ *TaskContext, p int) ([]T, error) {
		lo, hi := n*p/nParts, n*(p+1)/nParts
		out := make([]T, hi-lo)
		copy(out, data[lo:hi])
		return out, nil
	})
}

// Context returns the owning context.
func (r *RDD[T]) Context() *Context { return r.sc }

// NumPartitions returns the partition count.
func (r *RDD[T]) NumPartitions() int { return r.nParts }

// Cache marks the RDD for materialization on first action.
func (r *RDD[T]) Cache() *RDD[T] {
	r.mu.Lock()
	r.cache = true
	r.mu.Unlock()
	return r
}

// partition computes (or serves from cache) one partition.
func (r *RDD[T]) partition(tc *TaskContext, p int) ([]T, error) {
	r.mu.Lock()
	if r.cached != nil {
		data := r.cached[p]
		r.mu.Unlock()
		return data, nil
	}
	r.mu.Unlock()
	return r.compute(tc, p)
}

// Map applies f to every element.
func Map[T, U any](r *RDD[T], f func(T) U) *RDD[U] {
	return NewRDD(r.sc, r.nParts, func(tc *TaskContext, p int) ([]U, error) {
		in, err := r.partition(tc, p)
		if err != nil {
			return nil, err
		}
		out := make([]U, len(in))
		for i, v := range in {
			out[i] = f(v)
		}
		return out, nil
	})
}

// Filter keeps elements where pred is true.
func (r *RDD[T]) Filter(pred func(T) bool) *RDD[T] {
	return NewRDD(r.sc, r.nParts, func(tc *TaskContext, p int) ([]T, error) {
		in, err := r.partition(tc, p)
		if err != nil {
			return nil, err
		}
		var out []T
		for _, v := range in {
			if pred(v) {
				out = append(out, v)
			}
		}
		return out, nil
	})
}

// MapPartitions applies f to whole partitions.
func MapPartitions[T, U any](r *RDD[T], f func(tc *TaskContext, p int, in []T) ([]U, error)) *RDD[U] {
	return NewRDD(r.sc, r.nParts, func(tc *TaskContext, p int) ([]U, error) {
		in, err := r.partition(tc, p)
		if err != nil {
			return nil, err
		}
		return f(tc, p, in)
	})
}

// Coalesce reduces (or increases) the partition count. Like Spark's
// coalesce, reducing does not shuffle: new partition i takes a contiguous
// group of old partitions — exactly what S2V's setup phase does to hit the
// requested parallelism (§3.2).
func (r *RDD[T]) Coalesce(n int) *RDD[T] {
	if n <= 0 || n == r.nParts {
		return r
	}
	old := r.nParts
	if n < old {
		return NewRDD(r.sc, n, func(tc *TaskContext, p int) ([]T, error) {
			var out []T
			lo, hi := old*p/n, old*(p+1)/n
			for q := lo; q < hi; q++ {
				part, err := r.partition(tc, q)
				if err != nil {
					return nil, err
				}
				out = append(out, part...)
			}
			return out, nil
		})
	}
	// Growing requires a split (a shuffle in real Spark): split each old
	// partition into the new ones round-robin.
	return NewRDD(r.sc, n, func(tc *TaskContext, p int) ([]T, error) {
		src := p * old / n
		part, err := r.partition(tc, src)
		if err != nil {
			return nil, err
		}
		// The new partitions drawing from src split its rows evenly.
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
		lo, hi := len(part)*idx/k, len(part)*(idx+1)/k
		out := make([]T, hi-lo)
		copy(out, part[lo:hi])
		return out, nil
	})
}

// Collect materializes the whole RDD on the driver.
func (r *RDD[T]) Collect() ([]T, error) {
	parts, err := RunJob(r.sc, r.nParts, func(tc *TaskContext) ([]T, error) {
		return r.partition(tc, tc.PartitionID)
	})
	if err != nil {
		return nil, err
	}
	r.maybeFillCache(parts)
	return concat(parts), nil
}

// concat copies parts, in order, into one slice allocated at its final size.
// It returns nil when the parts hold nothing.
func concat[T any](parts [][]T) []T {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func (r *RDD[T]) maybeFillCache(parts [][]T) {
	r.mu.Lock()
	if r.cache && r.cached == nil {
		r.cached = parts
	}
	r.mu.Unlock()
}

// Count returns the number of elements.
func (r *RDD[T]) Count() (int64, error) {
	counts, err := RunJob(r.sc, r.nParts, func(tc *TaskContext) (int64, error) {
		in, err := r.partition(tc, tc.PartitionID)
		return int64(len(in)), err
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
		in, err := r.partition(tc, tc.PartitionID)
		if err != nil {
			var a A
			return a, err
		}
		acc := zero()
		for _, v := range in {
			acc = seqOp(acc, v)
		}
		return acc, nil
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

// ForeachPartition runs f once per partition, for side effects — the action
// that drives S2V's per-task save work.
func (r *RDD[T]) ForeachPartition(f func(tc *TaskContext, in []T) error) error {
	_, err := RunJob(r.sc, r.nParts, func(tc *TaskContext) (struct{}, error) {
		in, err := r.partition(tc, tc.PartitionID)
		if err != nil {
			return struct{}{}, err
		}
		return struct{}{}, f(tc, in)
	})
	return err
}

// String describes the RDD.
func (r *RDD[T]) String() string {
	return fmt.Sprintf("RDD[%d partitions]", r.nParts)
}
