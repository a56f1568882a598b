// Package txn implements the engine's transaction machinery: a cluster-wide
// epoch counter, table locks with INSERT and EXCLUSIVE modes, and
// transactions whose writes stay invisible (stamped with a provisional tag)
// until commit rebases them onto a freshly closed epoch.
//
// The epoch model is the load-bearing piece for the paper: V2S pins every
// partition query to the same epoch for a consistent cross-task snapshot
// (§3.1.2), and S2V's five-phase protocol relies on atomic
// read-check-update-commit sequences against its status tables (§3.2.1),
// which the EXCLUSIVE table lock provides.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"vsfabric/internal/storage"
)

// ErrLockTimeout is returned when a table lock cannot be acquired in time.
var ErrLockTimeout = errors.New("txn: lock acquisition timed out")

// ErrTxnDone is returned when operating on a committed or aborted transaction.
var ErrTxnDone = errors.New("txn: transaction already finished")

// LockMode is a table lock mode.
type LockMode int

const (
	// LockInsert allows concurrent bulk inserts into the same table
	// (Vertica allows concurrent COPYs); incompatible with LockExclusive.
	LockInsert LockMode = iota + 1
	// LockExclusive is required for UPDATE/DELETE and DDL; incompatible
	// with everything.
	LockExclusive
)

func (m LockMode) String() string {
	switch m {
	case LockInsert:
		return "INSERT"
	case LockExclusive:
		return "EXCLUSIVE"
	default:
		return "?"
	}
}

// CommitLog is the durability hook the transaction manager drives: a
// write-ahead log that must make the tag→epoch mapping durable before the
// commit is acknowledged. The wal package's Log satisfies it.
type CommitLog interface {
	// LogCommit records that tag committed at epoch and syncs it to stable
	// storage. An error fails (and aborts) the commit.
	LogCommit(tag, epoch uint64) error
	// LogAbort records that tag aborted. Best-effort: an abort lost to a
	// crash replays as an uncommitted tag and is discarded anyway.
	LogAbort(tag uint64) error
}

// Manager is the cluster-wide transaction manager.
type Manager struct {
	mu        sync.Mutex
	lastEpoch uint64
	nextTag   uint64
	locks     map[string]*tableLock
	pins      map[uint64]int // epoch → reader count
	log       CommitLog      // guarded by mu; nil when non-durable
	commitMu  sync.Mutex     // serializes epoch closing

	// LockTimeout bounds how long a transaction waits for a table lock
	// before giving up (deadlock avoidance by timeout).
	LockTimeout time.Duration
}

// NewManager returns a manager with the last closed epoch set to 1, so that
// epoch 1 is a valid empty snapshot.
func NewManager() *Manager {
	return &Manager{
		lastEpoch:   1,
		nextTag:     storage.ProvisionalBase + 1,
		locks:       make(map[string]*tableLock),
		pins:        make(map[uint64]int),
		LockTimeout: 10 * time.Second,
	}
}

// SetCommitLog installs the write-ahead log that commits must reach before
// they are acknowledged. Pass nil to detach (non-durable operation). Safe to
// call while holding CheckpointLock — the checkpoint swaps logs mid-cutover.
func (m *Manager) SetCommitLog(l CommitLog) {
	m.mu.Lock()
	m.log = l
	m.mu.Unlock()
}

func (m *Manager) commitLog() CommitLog {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.log
}

// SetLastEpoch force-sets the last closed epoch. Recovery-only: called while
// replaying the WAL, before the cluster serves traffic.
func (m *Manager) SetLastEpoch(e uint64) {
	m.mu.Lock()
	m.lastEpoch = e
	m.mu.Unlock()
}

// SetNextTag force-sets the next provisional tag. Recovery-only: the manager
// must never reissue a tag that appears in the surviving WAL, or a later
// crash would replay the old tag's records under the new transaction.
func (m *Manager) SetNextTag(tag uint64) {
	m.mu.Lock()
	if tag > m.nextTag {
		m.nextTag = tag
	}
	m.mu.Unlock()
}

// PinEpoch registers a reader at the given epoch and returns a release
// function (idempotent). While pinned, the AHM stays at or below the pin, so
// storage reclamation may not purge rows whose delete epoch is newer than it
// and AT EPOCH scans stay exact — the V2S consistent-snapshot guarantee
// (§3.1.2) extended to storage reclamation.
func (m *Manager) PinEpoch(epoch uint64) func() {
	m.mu.Lock()
	m.pins[epoch]++
	m.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			m.mu.Lock()
			if m.pins[epoch] > 1 {
				m.pins[epoch]--
			} else {
				delete(m.pins, epoch)
			}
			m.mu.Unlock()
		})
	}
}

// AHM returns the Ancient History Mark: the oldest epoch any pinned reader
// may still observe (the minimum pinned epoch, or the last closed epoch when
// nothing is pinned). Storage reclamation may purge a deleted row only once
// its delete epoch is <= AHM.
func (m *Manager) AHM() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	ahm := m.lastEpoch
	for e := range m.pins {
		if e < ahm {
			ahm = e
		}
	}
	return ahm
}

// CheckpointLock stalls commits for the duration of a storage checkpoint, so
// the persisted containers and the WAL cutover form one consistent durable
// epoch. Pair with CheckpointUnlock.
func (m *Manager) CheckpointLock() { m.commitMu.Lock() }

// CheckpointUnlock releases CheckpointLock.
func (m *Manager) CheckpointUnlock() { m.commitMu.Unlock() }

// LastEpoch returns the most recently closed (fully committed) epoch —
// what Vertica calls the "last epoch", the snapshot V2S pins (§3.1.2).
func (m *Manager) LastEpoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastEpoch
}

// Begin starts a new transaction with a fresh provisional tag.
func (m *Manager) Begin() *Txn {
	m.mu.Lock()
	tag := m.nextTag
	m.nextTag++
	m.mu.Unlock()
	return &Txn{
		m:       m,
		tag:     tag,
		locks:   make(map[string]LockMode),
		touched: make(map[*storage.Store]writeKinds),
	}
}

func (m *Manager) lockFor(table string) *tableLock {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.locks[table]
	if !ok {
		l = newTableLock()
		m.locks[table] = l
	}
	return l
}

// DropTableLock forgets the lock state for a dropped table.
func (m *Manager) DropTableLock(table string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.locks, table)
}

type writeKinds struct {
	inserted bool
	deleted  bool
}

// Txn is a single transaction. A Txn is used by one goroutine at a time.
type Txn struct {
	m        *Manager
	tag      uint64
	locks    map[string]LockMode
	touched  map[*storage.Store]writeKinds
	onCommit []func() error
	done     bool
}

// OnCommit registers a hook run atomically with the commit, while the commit
// lock is held and before the epoch closes. This is how DDL becomes
// transactional: S2V's overwrite commit registers the staging→target table
// swap here, guarded by its conditional status update (§3.2.1 phase 5), so
// the swap happens exactly once. Hooks must pre-validate: a failing hook
// aborts the commit but earlier hooks are not rolled back.
func (t *Txn) OnCommit(fn func() error) { t.onCommit = append(t.onCommit, fn) }

// Tag returns the transaction's provisional epoch tag, used to stamp writes.
func (t *Txn) Tag() uint64 { return t.tag }

// Vis returns the MVCC read context for a statement in this transaction:
// read-committed snapshot at the current last epoch, plus visibility of the
// transaction's own provisional writes.
func (t *Txn) Vis() storage.Visibility {
	return storage.Visibility{Epoch: t.m.LastEpoch(), Tag: t.tag}
}

// Acquire takes the table lock in the given mode, blocking up to the
// manager's LockTimeout. Re-acquiring an already-held mode is a no-op;
// holding INSERT and requesting EXCLUSIVE upgrades in place.
func (t *Txn) Acquire(table string, mode LockMode) error {
	if t.done {
		return ErrTxnDone
	}
	held, ok := t.locks[table]
	if ok && held >= mode {
		return nil
	}
	l := t.m.lockFor(table)
	deadline := time.Now().Add(t.m.LockTimeout)
	var err error
	if ok && held == LockInsert && mode == LockExclusive {
		err = l.upgrade(deadline)
	} else {
		err = l.acquire(mode, deadline)
	}
	if err != nil {
		return fmt.Errorf("%w: table %q mode %v", err, table, mode)
	}
	t.locks[table] = mode
	return nil
}

// NoteInsert records that this transaction inserted into the store so commit
// can rebase the provisional rows.
func (t *Txn) NoteInsert(s *storage.Store) {
	k := t.touched[s]
	k.inserted = true
	t.touched[s] = k
}

// NoteDelete records that this transaction deleted from the store.
func (t *Txn) NoteDelete(s *storage.Store) {
	k := t.touched[s]
	k.deleted = true
	t.touched[s] = k
}

// Commit atomically publishes the transaction's writes at a freshly closed
// epoch and releases its locks. It returns the commit epoch.
func (t *Txn) Commit() (uint64, error) {
	if t.done {
		return 0, ErrTxnDone
	}
	t.m.commitMu.Lock()
	for _, hook := range t.onCommit {
		if err := hook(); err != nil {
			t.m.commitMu.Unlock()
			t.Abort()
			return 0, fmt.Errorf("txn: commit hook failed: %w", err)
		}
	}
	t.m.mu.Lock()
	epoch := t.m.lastEpoch + 1
	t.m.mu.Unlock()
	if clog := t.m.commitLog(); clog != nil {
		// Durability point: the tag→epoch record must be on stable storage
		// before any in-memory state advances. If the log write fails the
		// transaction aborts and the epoch never closes.
		if err := clog.LogCommit(t.tag, epoch); err != nil {
			t.m.commitMu.Unlock()
			t.Abort()
			return 0, fmt.Errorf("txn: commit log write failed: %w", err)
		}
	}
	for s, k := range t.touched {
		if k.inserted {
			s.RebaseInserts(t.tag, epoch)
		}
		if k.deleted {
			s.RebaseDeletes(t.tag, epoch)
		}
	}
	t.m.mu.Lock()
	t.m.lastEpoch = epoch
	t.m.mu.Unlock()
	t.m.commitMu.Unlock()
	t.finish()
	return epoch, nil
}

// Abort discards the transaction's writes and releases its locks. Aborting a
// finished transaction is a no-op, so Abort is safe to defer.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	for s, k := range t.touched {
		if k.inserted {
			s.DropInserts(t.tag)
		}
		if k.deleted {
			s.ClearDeletes(t.tag)
		}
	}
	if clog := t.m.commitLog(); clog != nil {
		// Best-effort: a lost abort record replays as an uncommitted tag and
		// is discarded by recovery anyway.
		_ = clog.LogAbort(t.tag)
	}
	t.finish()
}

func (t *Txn) finish() {
	for table, mode := range t.locks {
		t.m.lockFor(table).release(mode)
	}
	t.locks = make(map[string]LockMode)
	t.touched = make(map[*storage.Store]writeKinds)
	t.onCommit = nil
	t.done = true
}

// tableLock is a two-mode lock: any number of INSERT holders or exactly one
// EXCLUSIVE holder. EXCLUSIVE requests are fair: once one is waiting, new
// INSERT acquisitions queue behind it, so a continuous stream of COPYs cannot
// starve DDL or a rebalance out to its lock timeout.
type tableLock struct {
	mu          sync.Mutex
	cond        *sync.Cond
	inserts     int
	excl        bool
	exclWaiters int
}

func newTableLock() *tableLock {
	l := &tableLock{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// waitUntil blocks on the condition until grantable() or the deadline. The
// caller must hold l.mu. A helper timer broadcasts at the deadline so Wait
// never blocks past it.
func (l *tableLock) waitUntil(grantable func() bool, deadline time.Time) error {
	for !grantable() {
		if !time.Now().Before(deadline) {
			return ErrLockTimeout
		}
		timer := time.AfterFunc(time.Until(deadline), l.cond.Broadcast)
		l.cond.Wait()
		timer.Stop()
	}
	return nil
}

func (l *tableLock) acquire(mode LockMode, deadline time.Time) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch mode {
	case LockInsert:
		if err := l.waitUntil(func() bool { return !l.excl && l.exclWaiters == 0 }, deadline); err != nil {
			return err
		}
		l.inserts++
	case LockExclusive:
		l.exclWaiters++
		err := l.waitUntil(func() bool { return !l.excl && l.inserts == 0 }, deadline)
		l.exclWaiters--
		if err != nil {
			// Wake INSERT waiters we were holding back.
			l.cond.Broadcast()
			return err
		}
		l.excl = true
	default:
		return fmt.Errorf("txn: bad lock mode %v", mode)
	}
	return nil
}

// upgrade converts the caller's INSERT hold into EXCLUSIVE once it is the
// only holder.
func (l *tableLock) upgrade(deadline time.Time) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.waitUntil(func() bool { return !l.excl && l.inserts == 1 }, deadline); err != nil {
		return err
	}
	l.inserts--
	l.excl = true
	return nil
}

func (l *tableLock) release(mode LockMode) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch mode {
	case LockInsert:
		if l.inserts > 0 {
			l.inserts--
		}
	case LockExclusive:
		l.excl = false
	}
	l.cond.Broadcast()
}
