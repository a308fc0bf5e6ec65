// Package txn provides transactions for the OLTP workloads: a strict
// two-phase-locking lock manager with wait-for-graph deadlock detection,
// a write-ahead log living in the simulated address space, and undo-based
// aborts.
//
// Lock-table probes and log appends are traced like every other engine
// access: lock metadata is a hashed region of the heap arena (shared,
// write-hot — the classic OLTP coherence traffic of Figure 7), and log
// appends are sequential stores.
package txn

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/mem"
	"repro/internal/trace"
)

// ErrDeadlock is returned when granting a lock would create a wait cycle;
// the caller must abort the transaction.
var ErrDeadlock = errors.New("txn: deadlock detected")

// ErrWouldBlock is returned by the non-blocking TryAcquire path when the
// lock is held in an incompatible mode: the transaction should park at a
// stage boundary and retry at its next scheduling quantum instead of
// stalling its worker thread.
var ErrWouldBlock = errors.New("txn: lock busy, park and retry")

// errTimeout guards tests against undetected lost wakeups.
var errTimeout = errors.New("txn: lock wait timed out")

// LockMode is shared or exclusive.
type LockMode uint8

// Lock modes.
const (
	Shared LockMode = iota
	Exclusive
)

func (m LockMode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

type lockEntry struct {
	holders map[uint64]LockMode
	waiters int
}

// LockManager implements strict 2PL over abstract uint64 resource keys.
type LockManager struct {
	mu      sync.Mutex
	cond    *sync.Cond
	locks   map[uint64]*lockEntry
	waitFor map[uint64]map[uint64]bool // txn -> txns it waits on
	gen     uint64                     // bumped on every release

	tableAddr mem.Addr
	tableLen  int
	code      mem.CodeSeg
}

// NewLockManager creates a manager whose lock-table metadata occupies
// slots hashed entries in arena.
func NewLockManager(arena *mem.Arena, slots int, codes *mem.CodeMap) *LockManager {
	if slots <= 0 {
		slots = 1 << 14
	}
	lm := &LockManager{
		locks:     make(map[uint64]*lockEntry),
		waitFor:   make(map[uint64]map[uint64]bool),
		tableAddr: arena.Alloc(slots*32, mem.LineSize),
		tableLen:  slots,
		code:      codes.Register("txn:lockmgr", 3584),
	}
	lm.cond = sync.NewCond(&lm.mu)
	return lm
}

func (lm *LockManager) slotAddr(key uint64) mem.Addr {
	h := key * 0x9E3779B97F4A7C15
	return lm.tableAddr + mem.Addr(h%uint64(lm.tableLen))*32
}

// compatible reports whether txn may hold key in mode given holders.
func compatible(e *lockEntry, txn uint64, mode LockMode) bool {
	for h, m := range e.holders {
		if h == txn {
			continue
		}
		if mode == Exclusive || m == Exclusive {
			return false
		}
	}
	return true
}

// wouldDeadlock checks whether txn waiting on key's holders closes a cycle
// in the wait-for graph. Called with mu held.
func (lm *LockManager) wouldDeadlock(txn uint64, e *lockEntry) bool {
	// Tentatively add edges txn -> holders and DFS for a path back to txn.
	var stack []uint64
	for h := range e.holders {
		if h != txn {
			stack = append(stack, h)
		}
	}
	seen := map[uint64]bool{}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == txn {
			return true
		}
		if seen[cur] {
			continue
		}
		seen[cur] = true
		for next := range lm.waitFor[cur] {
			stack = append(stack, next)
		}
	}
	return false
}

// Acquire takes key in mode for txn, blocking until granted. It returns
// ErrDeadlock when waiting would create a cycle. Re-acquiring a held key
// (or upgrading S->X when alone) succeeds.
func (lm *LockManager) Acquire(rec *trace.Recorder, txn, key uint64, mode LockMode) error {
	rec.Exec(lm.code, 80)
	rec.Load(lm.slotAddr(key), true)

	lm.mu.Lock()
	defer lm.mu.Unlock()
	e := lm.locks[key]
	if e == nil {
		e = &lockEntry{holders: make(map[uint64]LockMode)}
		lm.locks[key] = e
	}
	// The deadline is a host-time safety net only: simulated clients are
	// paced by the simulator's trace consumption, so a lock can be held
	// for minutes of host time on heavily multiplexed chips.
	deadline := time.Now().Add(120 * time.Second)
	for {
		if m, held := e.holders[txn]; held && (m == Exclusive || mode == Shared) {
			return nil // already sufficient
		}
		if compatible(e, txn, mode) {
			e.holders[txn] = mode
			delete(lm.waitFor, txn)
			// The grant dirties the lock slot: shared write-hot metadata.
			rec.Store(lm.slotAddr(key))
			return nil
		}
		if lm.wouldDeadlock(txn, e) {
			delete(lm.waitFor, txn)
			return ErrDeadlock
		}
		// Record wait edges and sleep.
		edges := lm.waitFor[txn]
		if edges == nil {
			edges = make(map[uint64]bool)
			lm.waitFor[txn] = edges
		}
		for h := range e.holders {
			if h != txn {
				edges[h] = true
			}
		}
		e.waiters++
		waitCond(lm.cond, deadline)
		e.waiters--
		if time.Now().After(deadline) {
			delete(lm.waitFor, txn)
			return errTimeout
		}
	}
}

// TryAcquire attempts to take key in mode for txn without ever blocking
// the calling thread. On success the lock is granted exactly as Acquire
// would grant it. On conflict it records txn's wait-for edges (replacing
// any edges from a previous park, so a parked transaction that is retried
// always reflects its current blockers) and returns the conflicting
// holder ids with ErrWouldBlock; the caller parks the transaction's
// continuation and retries later. When recording the wait would close a
// cycle in the wait-for graph it returns ErrDeadlock instead — deadlock
// detection works across parked continuations because parked waiters
// leave their edges in place until they are granted, aborted, or retried.
func (lm *LockManager) TryAcquire(rec *trace.Recorder, txn, key uint64, mode LockMode) ([]uint64, error) {
	rec.Exec(lm.code, 40)
	rec.Load(lm.slotAddr(key), true)

	lm.mu.Lock()
	defer lm.mu.Unlock()
	e := lm.locks[key]
	if e == nil {
		e = &lockEntry{holders: make(map[uint64]LockMode)}
		lm.locks[key] = e
	}
	if m, held := e.holders[txn]; held && (m == Exclusive || mode == Shared) {
		delete(lm.waitFor, txn)
		return nil, nil // already sufficient
	}
	if compatible(e, txn, mode) {
		e.holders[txn] = mode
		delete(lm.waitFor, txn)
		rec.Store(lm.slotAddr(key))
		return nil, nil
	}
	// Conflict: compute the blocker set (reported with either outcome so
	// the caller's scheduling policy — e.g. wound-wait by admission
	// order — can pick a victim on deadlock too).
	edges := make(map[uint64]bool)
	blockers := make([]uint64, 0, len(e.holders))
	for h := range e.holders {
		if h != txn {
			edges[h] = true
			blockers = append(blockers, h)
		}
	}
	slices.Sort(blockers)
	if lm.wouldDeadlock(txn, e) {
		delete(lm.waitFor, txn)
		return blockers, ErrDeadlock
	}
	// Park: replace txn's wait edges with the current conflict set.
	lm.waitFor[txn] = edges
	return blockers, ErrWouldBlock
}

// CancelWait clears txn's wait-for edges without granting anything: a
// parked transaction that gives up (abort without ever holding locks)
// must not leave stale edges behind.
func (lm *LockManager) CancelWait(txn uint64) {
	lm.mu.Lock()
	delete(lm.waitFor, txn)
	lm.mu.Unlock()
}

// waitCond waits on c with a crude deadline safety net.
func waitCond(c *sync.Cond, deadline time.Time) {
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(time.Until(deadline)):
			c.Broadcast()
		}
	}()
	c.Wait()
	close(done)
}

// Generation returns a counter that advances whenever locks are
// released. Cooperative schedulers use it to keep parked continuations
// dormant while nothing can possibly have unblocked them.
func (lm *LockManager) Generation() uint64 {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return lm.gen
}

// WaitRelease blocks until the generation has moved past gen: a thread
// whose continuation parked after reading gen sleeps until some
// transaction commits or aborts, then retries its step. Like Acquire it
// gives up after two minutes of host time, a safety net against a peer
// that died holding locks.
func (lm *LockManager) WaitRelease(gen uint64) error {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	deadline := time.Now().Add(120 * time.Second)
	for lm.gen == gen {
		if time.Now().After(deadline) {
			return errTimeout
		}
		waitCond(lm.cond, deadline)
	}
	return nil
}

// ReleaseAll drops every lock txn holds (commit/abort).
func (lm *LockManager) ReleaseAll(rec *trace.Recorder, txn uint64, keys []uint64) {
	rec.Exec(lm.code, 20+5*len(keys))
	lm.mu.Lock()
	defer lm.mu.Unlock()
	lm.gen++
	for _, key := range keys {
		if e := lm.locks[key]; e != nil {
			delete(e.holders, txn)
			rec.Store(lm.slotAddr(key))
			if len(e.holders) == 0 && e.waiters == 0 {
				delete(lm.locks, key)
			}
		}
	}
	delete(lm.waitFor, txn)
	lm.cond.Broadcast()
}

// Log is a write-ahead log whose buffer is a ring in the simulated heap.
type Log struct {
	mu   sync.Mutex
	addr mem.Addr
	size int
	head int
	lsn  uint64
	code mem.CodeSeg
}

// NewLog allocates a ring of size bytes in arena.
func NewLog(arena *mem.Arena, size int, codes *mem.CodeMap) *Log {
	if size < 1<<16 {
		size = 1 << 16
	}
	return &Log{
		addr: arena.Alloc(size, mem.LineSize),
		size: size,
		code: codes.Register("txn:log", 2048),
	}
}

// Append writes a record of n bytes and returns its LSN. Contents are not
// materialized (recovery is out of scope); the sequential stores are what
// the memory system sees.
func (l *Log) Append(rec *trace.Recorder, n int) uint64 {
	rec.Exec(l.code, 55)
	l.mu.Lock()
	if l.head+n > l.size {
		l.head = 0
	}
	at := l.addr + mem.Addr(l.head)
	l.head += n
	l.lsn++
	lsn := l.lsn
	l.mu.Unlock()
	rec.StoreRange(at, n)
	return lsn
}

// LSN returns the last assigned LSN.
func (l *Log) LSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// Manager creates transactions bound to a lock manager and log.
type Manager struct {
	LM  *LockManager
	Log *Log

	mu   sync.Mutex
	next uint64
}

// NewManager builds a transaction manager.
func NewManager(arena *mem.Arena, codes *mem.CodeMap) *Manager {
	return &Manager{
		LM:  NewLockManager(arena, 1<<14, codes),
		Log: NewLog(arena, 4<<20, codes),
	}
}

// Begin starts a transaction.
func (m *Manager) Begin(rec *trace.Recorder) *Txn {
	m.mu.Lock()
	m.next++
	id := m.next
	m.mu.Unlock()
	rec.Exec(m.LM.code, 15)
	return &Txn{ID: id, mgr: m}
}

// Txn is one transaction: held locks plus an undo list.
type Txn struct {
	ID   uint64
	mgr  *Manager
	keys []uint64
	undo []func()
	done bool
}

// Lock acquires key in the given mode under this transaction.
func (t *Txn) Lock(rec *trace.Recorder, key uint64, mode LockMode) error {
	if err := t.mgr.LM.Acquire(rec, t.ID, key, mode); err != nil {
		return err
	}
	t.keys = append(t.keys, key)
	return nil
}

// TryLock acquires key without blocking. On conflict it returns the
// holding transaction ids with ErrWouldBlock (the continuation should
// park and retry) or ErrDeadlock when waiting would close a cycle.
func (t *Txn) TryLock(rec *trace.Recorder, key uint64, mode LockMode) ([]uint64, error) {
	blockers, err := t.mgr.LM.TryAcquire(rec, t.ID, key, mode)
	if err != nil {
		return blockers, err
	}
	t.keys = append(t.keys, key)
	return nil, nil
}

// Finished reports whether the transaction has committed or aborted.
func (t *Txn) Finished() bool { return t.done }

// OnAbort registers an undo action (a closure restoring a before-image)
// and logs the corresponding record of n simulated bytes.
func (t *Txn) OnAbort(rec *trace.Recorder, n int, undo func()) {
	t.mgr.Log.Append(rec, n)
	t.undo = append(t.undo, undo)
}

// Commit logs the commit record and releases locks.
func (t *Txn) Commit(rec *trace.Recorder) {
	if t.done {
		panic(fmt.Sprintf("txn %d finished twice", t.ID))
	}
	t.done = true
	t.mgr.Log.Append(rec, 16)
	t.mgr.LM.ReleaseAll(rec, t.ID, t.keys)
	t.undo = nil
}

// Abort runs undo actions in reverse and releases locks.
func (t *Txn) Abort(rec *trace.Recorder) {
	if t.done {
		panic(fmt.Sprintf("txn %d finished twice", t.ID))
	}
	t.done = true
	for i := len(t.undo) - 1; i >= 0; i-- {
		t.undo[i]()
	}
	t.mgr.Log.Append(rec, 16)
	t.mgr.LM.ReleaseAll(rec, t.ID, t.keys)
	t.undo = nil
}
