package perf

import (
	"context"
	"sync"
	"time"
)

// OpResult is what one closed-loop operation reports back to the driver.
type OpResult struct {
	// Class names the latency bucket the operation lands in ("job",
	// "point", "insert", ...).
	Class string
	// Rows is the number of rows the operation moved (landed, committed or
	// returned); it feeds rows-per-second figures.
	Rows int64
	// Err fails the operation.
	Err error
	// After, when set, runs once the clock has stopped: the correctness
	// check on the operation's output and any untimed housekeeping. An
	// error from it fails the operation just as Err does.
	After func() error
}

// Op is one operation of client number client; seq counts that client's
// operations from 0.
type Op func(ctx context.Context, client, seq int) OpResult

// Loop is a closed-loop load: Clients goroutines each issue their next
// operation only after the previous one returned, so a slow target receives
// less load — the shape of Spark jobs and JDBC-style callers that wait for
// their reply.
type Loop struct {
	Clients int
	// Stop is asked before every operation, outside the timed region,
	// whether the client should finish; elapsed is the time since the loop
	// started. It is where a caller ends the window (on a deadline, or on a
	// deadline rounded up to a block boundary).
	Stop func(client, seq int, elapsed time.Duration) bool
	Op   Op
}

// ClientStats is one client's share of a loop.
type ClientStats struct {
	Ops     int64 // operations that succeeded
	Rows    int64
	Elapsed time.Duration // loop start to this client's last completion
}

// LoopStats is the outcome of one Loop.Run.
type LoopStats struct {
	Attempted int64
	// Failed counts operations whose Err or After reported an error. A
	// failed operation contributes no latency sample and no rows.
	Failed int64
	// Latency holds the successful operations' wall times, in seconds, by
	// class.
	Latency map[string][]float64
	Clients []ClientStats
	// FirstErr is the first failure seen, for the report.
	FirstErr error
}

// OpsPerSecond sums each client's completed operations over its own elapsed
// time, so clients that stop at different moments do not dilute the rate.
func (s LoopStats) OpsPerSecond() float64 {
	return s.rate(func(c ClientStats) int64 { return c.Ops })
}

// RowsPerSecond is OpsPerSecond for rows moved.
func (s LoopStats) RowsPerSecond() float64 {
	return s.rate(func(c ClientStats) int64 { return c.Rows })
}

func (s LoopStats) rate(of func(ClientStats) int64) float64 {
	total := 0.0
	for _, c := range s.Clients {
		if c.Elapsed > 0 {
			total += float64(of(c)) / c.Elapsed.Seconds()
		}
	}
	return total
}

// Run drives the loop until every client's Stop says so or ctx is cancelled,
// and waits for all clients to return.
func (l Loop) Run(ctx context.Context) LoopStats {
	type clientOut struct {
		ClientStats
		attempted, failed int64
		lat               map[string][]float64
		firstErr          error
	}
	outs := make([]clientOut, l.Clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < l.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			out.lat = make(map[string][]float64)
			for seq := 0; ctx.Err() == nil && !l.Stop(c, seq, time.Since(start)); seq++ {
				t0 := time.Now()
				r := l.Op(ctx, c, seq)
				d := time.Since(t0)
				done := time.Since(start)
				out.attempted++
				err := r.Err
				if err == nil && r.After != nil {
					err = r.After()
				}
				if err != nil {
					out.failed++
					if out.firstErr == nil {
						out.firstErr = err
					}
					continue
				}
				out.Ops++
				out.Rows += r.Rows
				out.Elapsed = done
				out.lat[r.Class] = append(out.lat[r.Class], d.Seconds())
			}
		}(c)
	}
	wg.Wait()

	stats := LoopStats{Latency: make(map[string][]float64)}
	for _, out := range outs {
		stats.Attempted += out.attempted
		stats.Failed += out.failed
		stats.Clients = append(stats.Clients, out.ClientStats)
		for class, lat := range out.lat {
			stats.Latency[class] = append(stats.Latency[class], lat...)
		}
		if stats.FirstErr == nil {
			stats.FirstErr = out.firstErr
		}
	}
	return stats
}
