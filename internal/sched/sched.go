// Package sched is the shared cohort/quantum scheduling substrate under
// both execution paths that batch work to keep instruction footprints
// L1I-resident: the QPipe/StagedDB-style DSS packet pipelines
// (internal/staged) and the STEPS-style staged OLTP executor
// (internal/oltp). Its unit of work is a runnable continuation — an Item —
// whose every step is charged against one of a small set of code-segment
// classes (kinds). The scheduler keeps a window of items in flight and,
// each quantum, visits the kinds in a fixed order, executing the current
// cohort of every non-empty kind in admission order; a kind's code segment
// is therefore loaded into the L1I once per cohort instead of once per
// item, which is the entire point of staging (Harizopoulos & Ailamaki,
// CIDR 2003).
//
// The core is deterministic by construction: admission order is the
// serialization order of all conflicts. Policy hooks let clients shape it
// without duplicating the quantum loop —
//
//   - Barrier: one kind (OLTP's commit stage, a pipeline's sink) drains in
//     admission order, so a younger item's effects can never become
//     visible to an older item's reads.
//   - Fence: an item may declare that its next step runs only as the
//     oldest in flight (data-dependent reads over other items' key
//     spaces).
//   - Wound-wait: an item that parks on busy locks wounds younger lock
//     holders (they restart from their first step) and retries at once, so
//     a freed lock always goes to the oldest waiter.
//   - Ready/Wait: an external gate (e.g. the cross-partition commit clock
//     of a partitioned OLTP run) may hold individual items back; when a
//     whole quantum is blocked only on the gate, the scheduler waits for
//     external progress instead of declaring itself wedged.
package sched

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// NoBarrier disables the admission-order barrier kind.
const NoBarrier = -1

// Outcome reports what one continuation step did.
type Outcome struct {
	// Done is set when the item completed.
	Done bool
	// Parked is set when the step blocked on a busy lock; the item stays
	// at the same kind and is retried next quantum.
	Parked bool
	// Deadlock is set when waiting would close a wait-for cycle; the
	// scheduler wounds younger blockers or restarts the item.
	Deadlock bool
	// Blockers holds the conflicting lock-holder ids of a parked or
	// deadlocked step, for the wound policy.
	Blockers []uint64
}

// Item is one runnable continuation: a deterministic state machine the
// scheduler advances one step at a time, each step charged against the
// code-segment class Kind reports.
type Item interface {
	// Kind returns the code-segment class of the next step.
	Kind() int
	// Fence reports whether the next step may only run once the item is
	// the oldest in flight.
	Fence() bool
	// Step executes the next step against ctx's recorder.
	Step(ctx *engine.Ctx) (Outcome, error)
	// Restart aborts the current attempt — undoing partial effects and
	// releasing locks — and rewinds the continuation to its first step.
	Restart(rec *trace.Recorder)
	// ID returns the item's lock-holder identity (0 = holds nothing),
	// matched against Outcome.Blockers by the wound policy.
	ID() uint64
}

// Config shapes one cohort scheduler.
type Config struct {
	// Window is the number of items kept in flight (default 16). Larger
	// windows amortize each kind's instruction-footprint load over more
	// items, at the cost of more conflicts.
	Window int
	// Kinds is the number of code-segment classes (required); each
	// quantum visits them in index order.
	Kinds int
	// Barrier is the kind whose steps drain in admission order
	// (NoBarrier = none).
	Barrier int
	// Generation, when set (e.g. txn.LockManager.Generation), lets the
	// scheduler keep a parked item dormant until some lock has actually
	// been released — skipping pointless retry probes.
	Generation func() uint64
	// Ready, when set, is an external gate consulted before every step:
	// an item whose Ready is false is skipped this quantum. Used by
	// partitioned runs to hold steps for the cross-partition clock.
	Ready func(Item) bool
	// Wait, when set, is called when a quantum makes no progress but at
	// least one item was held back by Ready: it must block until the
	// external gate may have changed, returning false to abort the run.
	Wait func() bool
	// Overhead, when set, charges the scheduler's own dispatch cost for
	// one non-empty cohort of n members.
	Overhead func(rec *trace.Recorder, n int)

	// Obs, when enabled, opens dual-clock spans (internal/obs) for the
	// scheduler's work: one async span per admitted item (ended on
	// completion), one span per scheduling quantum, and one span per
	// executed continuation step, parented under its item. The zero
	// Scope disables tracing at no cost.
	Obs obs.Scope
	// ItemName and KindName label the item and step spans; nil falls
	// back to "item-<seq>" / "kind-<k>".
	ItemName func(it Item, seq int) string
	KindName func(kind int) string
	// QuantumSteps observes continuation steps executed per quantum;
	// ParkQuanta observes quanta an item stayed parked before resuming.
	// Nil histograms are not fed.
	QuantumSteps *obs.Histogram
	ParkQuanta   *obs.Histogram
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 16
	}
	return c
}

// Stats counts scheduler events over one run.
type Stats struct {
	Done      int // items completed
	Steps     int // continuation steps executed
	Quanta    int // scheduling rounds over the kinds
	Switches  int // code-segment switches (non-empty kind cohorts)
	Parks     int // steps that parked on a busy lock
	Wounds    int // younger lock holders aborted by an older waiter
	Deadlocks int // wait-for cycles resolved by restarting the waiter
}

// slot is one in-flight item.
type slot struct {
	seq  int // admission order; the serialization order of conflicts
	item Item

	parked    bool   // waiting on older lock holders
	parkedGen uint64 // release generation at park time
	parkedAt  int    // quantum index of the park, for the park histogram
	span      *obs.Span
}

// Cohort drives items to completion with cohort scheduling. It runs on
// one worker (one trace stream): blocked items park their continuations,
// so the worker never stalls on a lock.
type Cohort struct {
	cfg Config
}

// New builds a cohort scheduler. Config.Kinds must be positive.
func New(cfg Config) *Cohort {
	if cfg.Kinds <= 0 {
		panic(fmt.Sprintf("sched: %d kinds", cfg.Kinds))
	}
	return &Cohort{cfg: cfg.withDefaults()}
}

// Run executes items to completion, admitting them in index order.
func (c *Cohort) Run(ctx *engine.Ctx, items []Item) (Stats, error) {
	i := 0
	return c.RunFeed(ctx, func() (Item, error) {
		if i >= len(items) {
			return nil, nil
		}
		it := items[i]
		i++
		return it, nil
	})
}

// RunFeed executes items drawn from next to completion, keeping up to
// Window in flight. next is called only when the window has room and may
// block until an item is available; it returns nil at end of input. Each
// quantum visits the kinds in a fixed order and executes the current
// cohort of every non-empty kind, walking members in admission order — so
// lock grants, wounds, and completions are all deterministic functions of
// the inputs.
func (c *Cohort) RunFeed(ctx *engine.Ctx, next func() (Item, error)) (Stats, error) {
	var st Stats
	cfg := c.cfg
	rec := ctx.Rec
	admitted := 0
	fed := false // next returned nil: no more items, ever
	active := make([]*slot, 0, cfg.Window)

	itemName := cfg.ItemName
	if itemName == nil {
		itemName = func(_ Item, seq int) string { return fmt.Sprintf("item-%d", seq) }
	}
	kindName := cfg.KindName
	if kindName == nil {
		kindName = func(k int) string { return fmt.Sprintf("kind-%d", k) }
	}
	// unpark closes a park episode, feeding its quantum distance.
	unpark := func(m *slot) {
		if m.parked {
			cfg.ParkQuanta.Observe(float64(st.Quanta - m.parkedAt))
			m.parked = false
		}
	}

	for {
		for !fed && len(active) < cfg.Window {
			it, err := next()
			if err != nil {
				return st, err
			}
			if it == nil {
				fed = true
				break
			}
			m := &slot{seq: admitted, item: it}
			if cfg.Obs.Enabled() {
				// Async: in-flight items overlap on this worker's thread.
				m.span = cfg.Obs.Begin(rec, itemName(it, admitted), "txn").SetAsync()
			}
			active = append(active, m)
			admitted++
		}
		if len(active) == 0 {
			return st, nil
		}

		// Runaway guard: a correct schedule advances every in-flight item
		// within a handful of quanta, so a quantum budget far above any
		// legitimate schedule turns a livelock bug into a diagnosable
		// error instead of a spinning worker.
		if st.Quanta > 200*admitted+10000 {
			desc := ""
			for _, m := range active {
				desc += fmt.Sprintf(" seq%d@kind%d(id %d)", m.seq, m.item.Kind(), m.item.ID())
			}
			return st, fmt.Errorf("sched: runaway schedule after %d quanta (%d done):%s", st.Quanta, st.Done, desc)
		}
		st.Quanta++
		qsp := cfg.Obs.Begin(rec, fmt.Sprintf("quantum-%d", st.Quanta), "quantum")
		stepsBefore := st.Steps
		progress := false
		gated := 0

		for kind := 0; kind < cfg.Kinds; kind++ {
			// Snapshot this kind's cohort in admission order, keeping only
			// members the external gate admits: a cohort held entirely by
			// the gate (a partition blocked on the cross-partition clock)
			// must not charge dispatch overhead, or a blocked partition
			// would accrue simulated cycles once per host-timing-dependent
			// wakeup. A member can still leave the kind mid-cohort
			// (wounded by an older peer earlier in the same list), so its
			// kind is re-checked below.
			members := members(active, kind)
			if cfg.Ready != nil {
				ready := members[:0]
				for _, m := range members {
					if cfg.Ready(m.item) {
						ready = append(ready, m)
					} else {
						gated++
					}
				}
				members = ready
			}
			if len(members) == 0 {
				continue
			}
			st.Switches++
			if cfg.Overhead != nil {
				cfg.Overhead(rec, len(members))
			}

			for _, m := range members {
				if m.item.Kind() != kind {
					continue
				}
				if m.item.Fence() && m.seq != active[0].seq {
					continue // waits to be the oldest in flight
				}
				if kind == cfg.Barrier && m.seq != active[0].seq {
					continue // admission-order barrier
				}
				if m.parked && cfg.Generation != nil && cfg.Generation() == m.parkedGen {
					continue // nothing released since the park; still blocked
				}
			steps:
				for {
					ssp := cfg.Obs.Under(m.span).Begin(rec, kindName(kind), "step")
					out, err := m.item.Step(ctx)
					ssp.End(rec)
					st.Steps++
					switch {
					case err != nil:
						return st, fmt.Errorf("sched: item seq %d (id %d): %w", m.seq, m.item.ID(), err)
					case out.Deadlock:
						// A wait-for cycle. To keep conflicts serialized in
						// admission order, break it by wounding the younger
						// participants and retrying; only when every
						// blocker is older (a cycle the wound policy cannot
						// break from here) does the requester itself
						// restart.
						st.Deadlocks++
						if wound(active, m, out.Blockers, rec, &st) == 0 {
							m.item.Restart(rec)
							m.parked = false
							progress = true
							break steps
						}
						progress = true // wounded: retry immediately
					case out.Done:
						unpark(m)
						m.span.End(rec)
						active = remove(active, m)
						st.Done++
						progress = true
						break steps
					case out.Parked:
						st.Parks++
						// Wound-wait in admission order: abort blockers
						// admitted after the parked item, then RETRY AT
						// ONCE — the freed lock must go to this older
						// waiter, not to a younger cohort member whose lock
						// step runs later in the quantum. With only older
						// blockers left, stay parked.
						if wound(active, m, out.Blockers, rec, &st) == 0 {
							if !m.parked {
								m.parkedAt = st.Quanta
							}
							m.parked = true
							if cfg.Generation != nil {
								m.parkedGen = cfg.Generation()
							}
							break steps
						}
						progress = true
					default:
						unpark(m)
						progress = true
						break steps
					}
				}
			}
		}
		qsp.End(rec)
		cfg.QuantumSteps.Observe(float64(st.Steps - stepsBefore))
		if !progress {
			if gated > 0 && cfg.Wait != nil {
				// Every runnable item is held back by the external gate:
				// block until the gate may have changed (a commit on
				// another partition) instead of spinning or wedging.
				if !cfg.Wait() {
					return st, fmt.Errorf("sched: external gate aborted with %d in flight", len(active))
				}
				continue
			}
			return st, fmt.Errorf("sched: wedged with %d in flight (window %d)", len(active), cfg.Window)
		}
	}
}

// wound aborts every blocker admitted after m — the wound half of
// wound-wait, keyed on admission order — and returns how many fell.
func wound(active []*slot, m *slot, blockers []uint64, rec *trace.Recorder, st *Stats) int {
	n := 0
	for _, id := range blockers {
		if w := byID(active, id); w != nil && w.seq > m.seq {
			st.Wounds++
			w.item.Restart(rec)
			w.parked = false
			n++
		}
	}
	return n
}

// members collects the active slots currently at kind, in admission order.
func members(active []*slot, kind int) []*slot {
	var out []*slot
	for _, s := range active {
		if s.item.Kind() == kind {
			out = append(out, s)
		}
	}
	return out
}

// remove drops m from active, preserving admission order.
func remove(active []*slot, m *slot) []*slot {
	for i, s := range active {
		if s == m {
			return append(active[:i], active[i+1:]...)
		}
	}
	return active
}

// byID finds the in-flight slot whose current attempt holds identity id.
func byID(active []*slot, id uint64) *slot {
	if id == 0 {
		return nil
	}
	for _, s := range active {
		if s.item.ID() == id {
			return s
		}
	}
	return nil
}
