package spark

import (
	"fmt"
	"sync"
	"time"
)

// TaskEnd is the checkpoint the scheduler passes for every task attempt once
// its function has returned and its outcome is recorded: a rule keyed to it
// acts when the attempt is over, whether it succeeded or failed. A failure
// injected there has no effect.
const TaskEnd = "spark.task_end"

// holdTimeout bounds how long a held attempt waits for its gate: a schedule
// whose release never comes fails the attempt instead of hanging the job.
const holdTimeout = 10 * time.Second

// FailureInjector arranges task and job failures at named checkpoints,
// letting tests reproduce every scenario §3.2.1 claims the connector
// survives: a task dying mid-phase, a task dying immediately after its
// commit, a speculative duplicate racing the original, and total Spark
// failure. Hold and release rules order attempts across tasks, so an
// interleaving that a race only sometimes produces happens every run.
type FailureInjector struct {
	mu        sync.Mutex
	rules     []rule
	speculate map[int]bool
	gates     map[string]chan struct{}
	log       []string
}

type rule struct {
	partition  int // -1 = any
	attempt    int // -1 = any
	checkpoint string
	killJob    bool
	hold       string // wait here until this gate opens
	release    string // open this gate here
	remaining  int    // fire at most this many times
}

// NewFailureInjector returns an empty injector.
func NewFailureInjector() *FailureInjector {
	return &FailureInjector{speculate: make(map[int]bool), gates: make(map[string]chan struct{})}
}

func (f *FailureInjector) add(r rule) *FailureInjector {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, r)
	return f
}

// FailTaskAt makes attempt `attempt` of task `partition` fail when it
// reaches the named checkpoint. Use attempt -1 for every attempt, partition
// -1 for every task. The rule fires `times` times.
func (f *FailureInjector) FailTaskAt(partition, attempt int, checkpoint string, times int) *FailureInjector {
	return f.add(rule{partition: partition, attempt: attempt, checkpoint: checkpoint, remaining: times})
}

// KillJobAt kills the whole job when the matching task reaches the
// checkpoint — simulating total Spark failure.
func (f *FailureInjector) KillJobAt(partition int, checkpoint string) *FailureInjector {
	return f.add(rule{partition: partition, attempt: -1, checkpoint: checkpoint, killJob: true, remaining: 1})
}

// HoldAt makes attempt `attempt` of task `partition` wait at the named
// checkpoint, once, until gate is released (ReleaseAt). A hold still closed
// after holdTimeout fails the attempt.
func (f *FailureInjector) HoldAt(partition, attempt int, checkpoint, gate string) *FailureInjector {
	return f.add(rule{partition: partition, attempt: attempt, checkpoint: checkpoint, hold: gate, remaining: 1})
}

// ReleaseAt opens gate when attempt `attempt` of task `partition` reaches
// the named checkpoint (TaskEnd included). An attempt that releases and
// holds, or releases and fails, at one checkpoint releases first.
func (f *FailureInjector) ReleaseAt(partition, attempt int, checkpoint, gate string) *FailureInjector {
	return f.add(rule{partition: partition, attempt: attempt, checkpoint: checkpoint, release: gate, remaining: 1})
}

// Speculate marks a partition for a concurrent duplicate attempt (requires
// Conf.Speculation).
func (f *FailureInjector) Speculate(partition int) *FailureInjector {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.speculate[partition] = true
	return f
}

// Log returns the injected events, for test assertions.
func (f *FailureInjector) Log() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.log))
	copy(out, f.log)
	return out
}

// gate returns the named gate's channel, closed once it is released.
// f.mu must be held.
func (f *FailureInjector) gate(name string) chan struct{} {
	ch, ok := f.gates[name]
	if !ok {
		ch = make(chan struct{})
		f.gates[name] = ch
	}
	return ch
}

func (f *FailureInjector) at(tc *TaskContext, checkpoint string) error {
	where := fmt.Sprintf("%s@task%d.attempt%d", checkpoint, tc.PartitionID, tc.Attempt)
	var (
		err   error
		holds []string // gate names, for the timeout's message
		chans []chan struct{}
	)
	f.mu.Lock()
	for i := range f.rules {
		r := &f.rules[i]
		if r.remaining <= 0 || r.checkpoint != checkpoint {
			continue
		}
		if r.partition != -1 && r.partition != tc.PartitionID {
			continue
		}
		if r.attempt != -1 && r.attempt != tc.Attempt {
			continue
		}
		switch {
		case r.release != "":
			if ch := f.gate(r.release); !isClosed(ch) {
				close(ch)
			}
			f.log = append(f.log, "release "+r.release+" "+where)
		case r.hold != "":
			holds, chans = append(holds, r.hold), append(chans, f.gate(r.hold))
			f.log = append(f.log, "hold "+r.hold+" "+where)
		case err == nil:
			f.log = append(f.log, where)
			if r.killJob {
				err = ErrJobKilled
			} else {
				err = fmt.Errorf("spark: injected failure at %q (task %d attempt %d)", checkpoint, tc.PartitionID, tc.Attempt)
			}
		default:
			continue // one failure per checkpoint; the next rule waits for the next visit
		}
		r.remaining--
	}
	f.mu.Unlock()
	for i, ch := range chans {
		select {
		case <-ch:
		case <-time.After(holdTimeout):
			return fmt.Errorf("spark: task %d attempt %d held at %q: gate %q never released", tc.PartitionID, tc.Attempt, checkpoint, holds[i])
		}
	}
	return err
}

func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
