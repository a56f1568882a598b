// Package pool implements named resource pools with admission control:
// per-pool memory budgets, concurrency caps, and bounded FIFO admission
// queues with timeouts. It is the engine-side half of the resource manager
// described for Vertica in "C-Store 7 Years Later": every query or load
// asks its session's pool for a slot before executing, and either runs
// immediately, waits its turn, or is turned away with a typed error the
// wire layer can carry to clients as a retryable condition.
//
// The package is dependency-free (standard library only) so it can sit
// below both the engine and the server without import cycles.
package pool

import (
	"container/list"
	"context"
	"errors"
	"sort"
	"sync"
	"time"
)

// GeneralPool is the name of the built-in pool every session starts in.
// It admits everything immediately and cannot be dropped.
const GeneralPool = "general"

// Admission sentinels. They are matched with errors.Is across the engine
// and restored from wire codes on the client side.
var (
	// ErrQueueTimeout means the request waited its full queue timeout
	// (or its context deadline) without a slot freeing up.
	ErrQueueTimeout = errors.New("resource pool queue timeout")
	// ErrRejected means the request could never be admitted: the queue is
	// at MaxQueueDepth, or the request alone exceeds the pool's memory
	// budget.
	ErrRejected = errors.New("resource pool rejected request")
	// ErrNotFound is returned for operations on a pool that does not exist.
	ErrNotFound = errors.New("resource pool does not exist")
	// ErrExists is returned by Create when the pool already exists.
	ErrExists = errors.New("resource pool already exists")
)

// Config is a pool's admission policy. The zero value is a pass-through
// pool: unlimited memory and concurrency, so nothing ever queues.
type Config struct {
	// MemoryBytes caps the sum of in-flight request estimates. 0 = unlimited.
	MemoryBytes int64 `json:"memory_bytes,omitempty"`
	// MaxConcurrency caps concurrently running requests. 0 = unlimited.
	MaxConcurrency int `json:"max_concurrency,omitempty"`
	// MaxQueueDepth bounds the admission queue: <0 unlimited, 0 = never
	// queue (reject when the pool is busy), >0 bounds the waiter count.
	MaxQueueDepth int `json:"max_queue_depth,omitempty"`
	// QueueTimeout bounds how long a request may wait for admission.
	// 0 = wait as long as the request's context allows.
	QueueTimeout time.Duration `json:"queue_timeout,omitempty"`
}

// Result describes how an admission went for the caller's accounting. With
// Admit's error it names the outcome: admitted at once, queued, or — when the
// error is ErrRejected, ErrQueueTimeout or the context's — refused.
type Result struct {
	Queued bool          // true if the request had to wait
	Waited time.Duration // time spent in the queue (0 if admitted at once)
}

// Stats is a point-in-time snapshot of one pool for monitoring.
type Stats struct {
	Name       string
	Cfg        Config
	Running    int
	MemInUse   int64
	QueueLen   int
	Admitted   uint64 // total admissions (immediate + queued)
	Queued     uint64 // total admissions that waited first
	Timeouts   uint64
	Rejections uint64
	Cancels    uint64
}

type waiter struct {
	ch       chan struct{} // closed by pump() when admitted
	mem      int64
	admitted bool
}

// Pool is one named admission domain. All methods are safe for concurrent
// use. Admission order is strict FIFO: a new arrival never barges past
// parked waiters even if it would fit.
type Pool struct {
	name string

	mu       sync.Mutex
	cfg      Config
	running  int
	memInUse int64
	waiters  list.List // of *waiter

	admitted   uint64
	queuedTot  uint64
	timeouts   uint64
	rejections uint64
	cancels    uint64
}

// Name returns the pool's name.
func (p *Pool) Name() string { return p.name }

// Snapshot returns current stats.
func (p *Pool) Snapshot() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Name: p.name, Cfg: p.cfg,
		Running: p.running, MemInUse: p.memInUse, QueueLen: p.waiters.Len(),
		Admitted: p.admitted, Queued: p.queuedTot,
		Timeouts: p.timeouts, Rejections: p.rejections, Cancels: p.cancels,
	}
}

func (p *Pool) fits(mem int64) bool {
	if p.cfg.MaxConcurrency > 0 && p.running >= p.cfg.MaxConcurrency {
		return false
	}
	if p.cfg.MemoryBytes > 0 && p.memInUse+mem > p.cfg.MemoryBytes {
		return false
	}
	return true
}

// pump admits parked waiters head-first while resources allow. The head
// blocks the queue: FIFO order is never violated to fit a smaller request.
// Caller holds p.mu.
func (p *Pool) pump() {
	for e := p.waiters.Front(); e != nil; e = p.waiters.Front() {
		w := e.Value.(*waiter)
		if !p.fits(w.mem) {
			return
		}
		p.waiters.Remove(e)
		p.running++
		p.memInUse += w.mem
		w.admitted = true
		close(w.ch)
	}
}

func (p *Pool) release(mem int64) {
	p.mu.Lock()
	p.running--
	p.memInUse -= mem
	p.pump()
	p.mu.Unlock()
}

// Admit asks for a slot sized mem bytes. It returns a release func that
// MUST be called exactly once when the work finishes, plus a Result saying
// whether (and how long) the request queued. A mem of 0 still counts
// against MaxConcurrency.
func (p *Pool) Admit(ctx context.Context, mem int64) (func(), Result, error) {
	p.mu.Lock()
	if p.cfg.MemoryBytes > 0 && mem > p.cfg.MemoryBytes {
		// Could never run: bigger than the whole budget.
		p.rejections++
		p.mu.Unlock()
		return nil, Result{}, ErrRejected
	}
	if p.waiters.Len() == 0 && p.fits(mem) {
		p.running++
		p.memInUse += mem
		p.admitted++
		p.mu.Unlock()
		var once sync.Once
		return func() { once.Do(func() { p.release(mem) }) }, Result{}, nil
	}
	if p.cfg.MaxQueueDepth >= 0 && p.waiters.Len() >= p.cfg.MaxQueueDepth {
		p.rejections++
		p.mu.Unlock()
		return nil, Result{}, ErrRejected
	}
	w := &waiter{ch: make(chan struct{}), mem: mem}
	elem := p.waiters.PushBack(w)
	timeout := p.cfg.QueueTimeout
	p.mu.Unlock()

	start := time.Now()
	var timer *time.Timer
	var timerC <-chan time.Time
	if timeout > 0 {
		timer = time.NewTimer(timeout)
		timerC = timer.C
		defer timer.Stop()
	}

	var err error
	select {
	case <-w.ch:
		wait := time.Since(start)
		p.mu.Lock()
		p.admitted++
		p.queuedTot++
		p.mu.Unlock()
		var once sync.Once
		return func() { once.Do(func() { p.release(mem) }) }, Result{Queued: true, Waited: wait}, nil
	case <-timerC:
		err = ErrQueueTimeout
	case <-ctx.Done():
		err = ctx.Err()
	}

	// Timed out or canceled: withdraw from the queue, racing pump().
	p.mu.Lock()
	if w.admitted {
		// pump() admitted us before we could withdraw — take the slot and
		// give it straight back so accounting stays balanced, then fail.
		p.running--
		p.memInUse -= mem
		p.pump()
	} else {
		p.waiters.Remove(elem)
	}
	if err == ErrQueueTimeout {
		p.timeouts++
	} else {
		p.cancels++
	}
	p.mu.Unlock()
	return nil, Result{Queued: true, Waited: time.Since(start)}, err
}

// Manager owns the named pools of one cluster.
type Manager struct {
	mu    sync.Mutex
	pools map[string]*Pool
}

// NewManager returns a manager pre-populated with the built-in
// pass-through "general" pool.
func NewManager() *Manager {
	m := &Manager{pools: make(map[string]*Pool)}
	m.pools[GeneralPool] = &Pool{name: GeneralPool, cfg: Config{MaxQueueDepth: -1}}
	return m
}

// Get returns the named pool or ErrNotFound.
func (m *Manager) Get(name string) (*Pool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.pools[name]
	if !ok {
		return nil, ErrNotFound
	}
	return p, nil
}

// General returns the built-in pool.
func (m *Manager) General() *Pool {
	p, _ := m.Get(GeneralPool)
	return p
}

// Create adds a new pool or returns ErrExists.
func (m *Manager) Create(name string, cfg Config) (*Pool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.pools[name]; ok {
		return nil, ErrExists
	}
	p := &Pool{name: name, cfg: cfg}
	m.pools[name] = p
	return p, nil
}

// Ensure upserts: create the pool if missing, otherwise reset its config.
// Used by WAL replay, where the log's last word on a pool wins.
func (m *Manager) Ensure(name string, cfg Config) *Pool {
	m.mu.Lock()
	p, ok := m.pools[name]
	if !ok {
		p = &Pool{name: name, cfg: cfg}
		m.pools[name] = p
		m.mu.Unlock()
		return p
	}
	m.mu.Unlock()
	p.mu.Lock()
	p.cfg = cfg
	p.pump() // raised limits may unblock parked waiters
	p.mu.Unlock()
	return p
}

// Alter replaces the named pool's config (ErrNotFound if missing) and
// re-pumps its queue in case limits were raised.
func (m *Manager) Alter(name string, cfg Config) error {
	m.mu.Lock()
	p, ok := m.pools[name]
	m.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	p.mu.Lock()
	p.cfg = cfg
	p.pump()
	p.mu.Unlock()
	return nil
}

// Drop removes a pool. The built-in general pool cannot be dropped.
// Requests already admitted keep their slots; parked waiters stay parked
// until admitted or timed out (sessions resolve the name per statement, so
// new work lands in general once its SET target vanishes).
func (m *Manager) Drop(name string) error {
	if name == GeneralPool {
		return errors.New("cannot drop built-in general pool")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.pools[name]; !ok {
		return ErrNotFound
	}
	delete(m.pools, name)
	return nil
}

// List returns stats for every pool, sorted by name.
func (m *Manager) List() []Stats {
	m.mu.Lock()
	ps := make([]*Pool, 0, len(m.pools))
	for _, p := range m.pools {
		ps = append(ps, p)
	}
	m.mu.Unlock()
	out := make([]Stats, 0, len(ps))
	for _, p := range ps {
		out = append(out, p.Snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
