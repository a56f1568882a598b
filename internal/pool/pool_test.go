package pool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestImmediateAdmission(t *testing.T) {
	m := NewManager()
	p := m.General()
	rel, res, err := p.Admit(context.Background(), 1<<20)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if res.Queued {
		t.Fatal("general pool should never queue")
	}
	st := p.Snapshot()
	if st.Running != 1 || st.MemInUse != 1<<20 {
		t.Fatalf("running=%d mem=%d, want 1, 1MiB", st.Running, st.MemInUse)
	}
	rel()
	rel() // double release must be a no-op
	st = p.Snapshot()
	if st.Running != 0 || st.MemInUse != 0 {
		t.Fatalf("after release running=%d mem=%d", st.Running, st.MemInUse)
	}
}

func TestConcurrencyBoundAndFIFO(t *testing.T) {
	m := NewManager()
	p, err := m.Create("q", Config{MaxConcurrency: 2, MaxQueueDepth: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rel1, _, _ := p.Admit(ctx, 0)
	rel2, _, _ := p.Admit(ctx, 0)

	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	proceed := make(chan struct{}) // closed once order is fully observed
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, res, err := p.Admit(ctx, 0)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			if !res.Queued {
				t.Errorf("waiter %d admitted without queueing", i)
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			// Hold the slot until the test has observed the admission, so
			// releases can't admit the next waiter concurrently and blur
			// the observed order.
			<-proceed
			rel()
		}()
		// Wait until the goroutine is parked before starting the next, so
		// arrival (and hence FIFO) order is deterministic.
		waitFor(t, func() bool { return p.Snapshot().QueueLen == i+1 })
	}
	if st := p.Snapshot(); st.Running != 2 {
		t.Fatalf("running=%d, want bounded at 2", st.Running)
	}
	seen := func(n int) bool { mu.Lock(); defer mu.Unlock(); return len(order) == n }
	rel1()
	waitFor(t, func() bool { return seen(1) })
	rel2()
	waitFor(t, func() bool { return seen(2) })
	close(proceed) // first two release; third admitted off their slots
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("admission order %v, want FIFO 0,1,2", order)
		}
	}
	if st := p.Snapshot(); st.Admitted != 5 || st.Queued != 3 {
		t.Fatalf("admitted=%d queued=%d, want 5/3", st.Admitted, st.Queued)
	}
}

func TestMemoryBudget(t *testing.T) {
	m := NewManager()
	p, _ := m.Create("mem", Config{MemoryBytes: 100, MaxQueueDepth: -1})
	ctx := context.Background()
	rel1, _, err := p.Admit(ctx, 60)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		rel, _, err := p.Admit(ctx, 60)
		if err == nil {
			rel()
		}
		done <- err
	}()
	waitFor(t, func() bool { return p.Snapshot().QueueLen == 1 })
	rel1()
	if err := <-done; err != nil {
		t.Fatalf("second admit after release: %v", err)
	}

	// A request bigger than the whole budget is rejected outright.
	if _, _, err := p.Admit(ctx, 101); !errors.Is(err, ErrRejected) {
		t.Fatalf("oversized request: got %v, want ErrRejected", err)
	}
}

func TestQueueDepthReject(t *testing.T) {
	m := NewManager()
	p, _ := m.Create("tiny", Config{MaxConcurrency: 1, MaxQueueDepth: 1})
	ctx := context.Background()
	rel, _, _ := p.Admit(ctx, 0)
	defer rel()
	go p.Admit(ctx, 0) //nolint:errcheck // released via rel below is irrelevant; parked forever is fine for the test
	waitFor(t, func() bool { return p.Snapshot().QueueLen == 1 })
	if _, _, err := p.Admit(ctx, 0); !errors.Is(err, ErrRejected) {
		t.Fatalf("queue overflow: got %v, want ErrRejected", err)
	}
	// MaxQueueDepth 0 means never queue.
	p2, _ := m.Create("noq", Config{MaxConcurrency: 1})
	rel2, _, _ := p2.Admit(ctx, 0)
	defer rel2()
	if _, _, err := p2.Admit(ctx, 0); !errors.Is(err, ErrRejected) {
		t.Fatalf("zero-depth queue: got %v, want ErrRejected", err)
	}
}

func TestQueueTimeout(t *testing.T) {
	m := NewManager()
	p, _ := m.Create("slow", Config{MaxConcurrency: 1, MaxQueueDepth: -1, QueueTimeout: 10 * time.Millisecond})
	ctx := context.Background()
	rel, _, _ := p.Admit(ctx, 0)
	defer rel()
	_, res, err := p.Admit(ctx, 0)
	if !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("got %v, want ErrQueueTimeout", err)
	}
	if !res.Queued || res.Waited < 10*time.Millisecond {
		t.Fatalf("result %+v should reflect the wait", res)
	}
	if st := p.Snapshot(); st.Timeouts != 1 || st.QueueLen != 0 {
		t.Fatalf("timeouts=%d queuelen=%d, want 1/0", st.Timeouts, st.QueueLen)
	}
}

func TestContextCancel(t *testing.T) {
	m := NewManager()
	p, _ := m.Create("c", Config{MaxConcurrency: 1, MaxQueueDepth: -1})
	rel, _, _ := p.Admit(context.Background(), 0)
	defer rel()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := p.Admit(ctx, 0)
		done <- err
	}()
	waitFor(t, func() bool { return p.Snapshot().QueueLen == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if st := p.Snapshot(); st.QueueLen != 0 || st.Cancels != 1 {
		t.Fatalf("queuelen=%d cancels=%d after cancel", st.QueueLen, st.Cancels)
	}
}

func TestAlterRaisesLimitsUnblocksWaiters(t *testing.T) {
	m := NewManager()
	p, _ := m.Create("grow", Config{MaxConcurrency: 1, MaxQueueDepth: -1})
	ctx := context.Background()
	rel, _, _ := p.Admit(ctx, 0)
	defer rel()
	done := make(chan error, 1)
	go func() {
		rel, _, err := p.Admit(ctx, 0)
		if err == nil {
			defer rel()
		}
		done <- err
	}()
	waitFor(t, func() bool { return p.Snapshot().QueueLen == 1 })
	if err := m.Alter("grow", Config{MaxConcurrency: 2, MaxQueueDepth: -1}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("waiter after ALTER: %v", err)
	}
}

func TestManagerLifecycle(t *testing.T) {
	m := NewManager()
	if _, err := m.Create(GeneralPool, Config{}); !errors.Is(err, ErrExists) {
		t.Fatalf("create general: %v, want ErrExists", err)
	}
	if err := m.Drop(GeneralPool); err == nil {
		t.Fatal("dropping general must fail")
	}
	if err := m.Alter("ghost", Config{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("alter ghost: %v", err)
	}
	if _, err := m.Create("a", Config{MaxConcurrency: 3}); err != nil {
		t.Fatal(err)
	}
	m.Ensure("a", Config{MaxConcurrency: 7}) // upsert over existing
	m.Ensure("b", Config{MemoryBytes: 42})   // upsert creates
	ls := m.List()
	if len(ls) != 3 || ls[0].Name != "a" || ls[1].Name != "b" || ls[2].Name != GeneralPool {
		t.Fatalf("List: %+v", ls)
	}
	if ls[0].Cfg.MaxConcurrency != 7 || ls[1].Cfg.MemoryBytes != 42 {
		t.Fatalf("Ensure configs not applied: %+v", ls)
	}
	if err := m.Drop("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get("b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get dropped: %v", err)
	}
}

// TestAdmitReleaseRace hammers a small pool from many goroutines and checks
// the concurrency bound is never violated and accounting returns to zero.
func TestAdmitReleaseRace(t *testing.T) {
	m := NewManager()
	const limit = 4
	p, _ := m.Create("race", Config{MaxConcurrency: limit, MaxQueueDepth: -1})
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	ctx := context.Background()
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				rel, _, err := p.Admit(ctx, 1)
				if err != nil {
					t.Errorf("admit: %v", err)
					return
				}
				n := cur.Add(1)
				for {
					old := peak.Load()
					if n <= old || peak.CompareAndSwap(old, n) {
						break
					}
				}
				cur.Add(-1)
				rel()
			}
		}()
	}
	wg.Wait()
	if peak.Load() > limit {
		t.Fatalf("observed %d concurrent admissions, limit %d", peak.Load(), limit)
	}
	if st := p.Snapshot(); st.Running != 0 || st.MemInUse != 0 || st.QueueLen != 0 {
		t.Fatalf("leaked accounting: %+v", st)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(200 * time.Microsecond)
	}
}
