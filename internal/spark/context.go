// Package spark implements the batch compute engine substrate: RDDs
// (immutable, partitioned, lazily computed), DataFrames with schemas, a
// batch task scheduler with executors, bounded task retry and speculative
// execution, precise failure injection for testing exactly-once guarantees,
// and Spark 1.5's External Data Source API (§2.1.2 of the paper) that the
// connector plugs into.
//
// The scheduler reproduces the properties the paper's S2V protocol is built
// to survive: tasks are stateless, independent, cannot coordinate, may run
// more than once (retry after failure, speculative duplicates), and the
// whole job may die at any point (§2.2.2).
package spark

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"vsfabric/internal/obs"
	"vsfabric/internal/sim"
)

// ErrJobKilled is returned when a job dies as a whole (the "total Spark
// failure" scenario of §3.2.1).
var ErrJobKilled = errors.New("spark: job killed (total failure)")

// Conf configures a Context.
type Conf struct {
	// AppName labels the application.
	AppName string
	// NumExecutors is the number of worker nodes ("s0".."sN-1" in the
	// simulated topology).
	NumExecutors int
	// CoresPerExecutor bounds concurrently running tasks per executor.
	CoresPerExecutor int
	// MaxTaskFailures is how many attempts a task gets before the job fails
	// (Spark's spark.task.maxFailures, default 4).
	MaxTaskFailures int
	// Speculation enables speculative re-execution of straggling or
	// injector-marked tasks.
	Speculation bool
	// Injector injects failures at task checkpoints (tests only).
	Injector *FailureInjector
	// Trace receives per-task resource usage records (benchmarks only).
	Trace *sim.Trace
}

func (c Conf) withDefaults() Conf {
	if c.NumExecutors <= 0 {
		c.NumExecutors = 2
	}
	if c.CoresPerExecutor <= 0 {
		c.CoresPerExecutor = 4
	}
	if c.MaxTaskFailures <= 0 {
		c.MaxTaskFailures = 4
	}
	return c
}

// Context is the entry point to the compute engine (a SparkContext).
type Context struct {
	conf    Conf
	stageID atomic.Int64
	slots   []chan struct{} // per-executor core semaphores
	killed  atomic.Bool
}

// NewContext creates a context with the given configuration.
func NewContext(conf Conf) *Context {
	conf = conf.withDefaults()
	sc := &Context{conf: conf}
	for i := 0; i < conf.NumExecutors; i++ {
		ch := make(chan struct{}, conf.CoresPerExecutor)
		for j := 0; j < conf.CoresPerExecutor; j++ {
			ch <- struct{}{}
		}
		sc.slots = append(sc.slots, ch)
	}
	return sc
}

// Conf returns the context configuration.
func (sc *Context) Conf() Conf { return sc.conf }

// ExecutorFor returns the simulated node name the given partition's task
// runs on (static round-robin placement).
func (sc *Context) ExecutorFor(partition int) string {
	return sim.SName(partition % sc.conf.NumExecutors)
}

// TaskContext is what a running task attempt sees: its identity, executor,
// recorder, and failure-injection checkpoints. Mirrors Spark's TaskContext.
type TaskContext struct {
	StageID     int64
	PartitionID int
	Attempt     int
	Speculative bool
	ExecNode    string
	// Rec records the task's resource usage (nil outside benchmarks).
	Rec *sim.TaskRec

	sc *Context
}

// Context is the context a task's database operations run under: the
// executor's name travels to the engine as the session peer, and a traced
// task's record receives their cost events (an untraced task carries none).
func (tc *TaskContext) Context() context.Context {
	return sim.WithTask(obs.WithPeer(context.Background(), tc.ExecNode), tc.Rec)
}

// Checkpoint gives the failure injector a chance to kill this task attempt
// (returning an error, triggering a retry) or the whole job at a named
// point. Production code paths sprinkle these at phase boundaries so tests
// can kill tasks at the worst possible moments.
func (tc *TaskContext) Checkpoint(name string) error {
	inj := tc.sc.conf.Injector
	if inj == nil {
		return nil
	}
	return inj.at(tc, name)
}

// RunJob executes one task per partition and gathers the per-partition
// results. Failed tasks retry on a fresh attempt number up to
// MaxTaskFailures; with speculation, marked partitions get a concurrent
// duplicate attempt whose side effects also happen — only its result is
// deduplicated, exactly like Spark. The first error past the retry budget
// fails the whole job (remaining tasks still drain).
func RunJob[R any](sc *Context, numPartitions int, fn func(tc *TaskContext) (R, error)) ([]R, error) {
	if numPartitions <= 0 {
		return nil, fmt.Errorf("spark: job needs at least one partition")
	}
	stage := sc.stageID.Add(1)
	results := make([]R, numPartitions)
	var (
		mu      sync.Mutex
		done    = make([]bool, numPartitions)
		jobErr  error
		wg      sync.WaitGroup
		attempt = make([]int, numPartitions)
	)

	setErr := func(err error) {
		mu.Lock()
		if jobErr == nil {
			jobErr = err
		}
		mu.Unlock()
	}

	var runAttempt func(p, att int, speculative bool)
	runAttempt = func(p, att int, speculative bool) {
		defer wg.Done()
		if sc.killed.Load() {
			return
		}
		exec := p % sc.conf.NumExecutors
		<-sc.slots[exec]
		defer func() { sc.slots[exec] <- struct{}{} }()
		if sc.killed.Load() {
			return
		}
		tc := &TaskContext{
			StageID:     stage,
			PartitionID: p,
			Attempt:     att,
			Speculative: speculative,
			ExecNode:    sc.ExecutorFor(p),
			sc:          sc,
		}
		if sc.conf.Trace != nil {
			tc.Rec = sc.conf.Trace.Task(fmt.Sprintf("stage%d-task%04d-attempt%d", stage, p, att), tc.ExecNode)
			tc.Rec.Fixed(sim.FixedTaskStart)
		}
		r, err := fn(tc)
		switch {
		case err == nil:
			mu.Lock()
			if !done[p] {
				done[p] = true
				results[p] = r
			}
			mu.Unlock()
		case errors.Is(err, ErrJobKilled):
			sc.killed.Store(true)
			setErr(ErrJobKilled)
		default:
			mu.Lock()
			finished := done[p]
			attempt[p]++
			next := attempt[p]
			retry := !finished && next < sc.conf.MaxTaskFailures && jobErr == nil
			mu.Unlock()
			if retry {
				wg.Add(1)
				go runAttempt(p, next, false)
			} else if !finished {
				setErr(fmt.Errorf("spark: task %d failed %d times, most recent: %w", p, next, err))
			}
		}
		_ = tc.Checkpoint(TaskEnd)
	}

	for p := 0; p < numPartitions; p++ {
		wg.Add(1)
		go runAttempt(p, 0, false)
		if sc.conf.Speculation && sc.conf.Injector != nil && sc.conf.Injector.speculate[p] {
			// Deterministic speculative duplicate: same partition, distinct
			// attempt, side effects run for real.
			mu.Lock()
			attempt[p]++
			att := attempt[p]
			mu.Unlock()
			wg.Add(1)
			go runAttempt(p, att, true)
		}
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if jobErr != nil {
		return nil, jobErr
	}
	for p := 0; p < numPartitions; p++ {
		if !done[p] {
			return nil, fmt.Errorf("spark: task %d never completed", p)
		}
	}
	return results, nil
}

// ResetKill clears the killed flag so a fresh job can run after a simulated
// total failure (a "Spark restart").
func (sc *Context) ResetKill() { sc.killed.Store(false) }
