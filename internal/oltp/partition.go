// Multi-worker staged OLTP: the transaction stream is partitioned by home
// warehouse across N cohort schedulers, one per worker thread (one per
// simulated core, each with its own Ctx and trace stream). Partitions
// execute concurrently — probes, fetches, locks, and in-place updates of
// one partition's warehouses never conflict with another's — while two
// global invariants keep the result byte-identical to the monolithic
// reference executing the global admission order:
//
//  1. Commits drain in GLOBAL admission order through a txn.SeqClock.
//     Commit steps are the only point where deferred inserts and index
//     deletes reach the shared heaps and B+trees, so clock-ordered
//     commits reproduce the monolithic heap append order exactly.
//  2. Cross-partition transactions (a NewOrder supplying a line from a
//     remote warehouse, a Payment against a remote customer) are fenced:
//     the clock holds every globally younger transaction at its gate
//     until the fenced transaction has committed, so it executes in
//     global isolation — the deterministic cross-partition handoff.
//
// Clock waits are host-side only: a partition blocked on another's commit
// emits no trace records, so its simulated thread does not accrue cycles
// while waiting (the same modeling as lock waits in the saturated client
// cells). Scheduler counters may therefore vary run to run — whether a
// parked retry lands one quantum earlier depends on host interleaving —
// but every state-visible decision (lock grants, wounds, commit order,
// heap append order) is a deterministic function of the inputs.

package oltp

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/par"
	"repro/internal/sched"
	"repro/internal/txn"
)

// SplitWindow divides a total in-flight window across parts schedulers,
// never below a cohort of 2 per partition (a window of 1 is monolithic
// scheduling in disguise). Every partitioned driver — traced or native —
// must split through here so the policy has one home.
func SplitWindow(cohort, parts int) int {
	w := cohort / parts
	if w < 2 {
		w = 2
	}
	return w
}

// PartitionPlan assigns each program of a global admission sequence to a
// partition and flags the cross-partition transactions that need the
// global fence. Index i throughout refers to global admission order.
type PartitionPlan struct {
	Parts int
	Home  []int  // home partition per program
	Fence []bool // true: runs in global isolation (cross-partition)
}

// Fences returns the global sequence numbers flagged for isolation.
func (p PartitionPlan) Fences() []int {
	var out []int
	for seq, f := range p.Fence {
		if f {
			out = append(out, seq)
		}
	}
	return out
}

// partItem wraps a program with its global admission sequence so the
// partition scheduler's gate can consult the clock, and advances the
// clock when the program's commit step completes.
type partItem struct {
	progItem
	gseq  int
	clock *txn.SeqClock
}

func (it *partItem) Step(ctx *engine.Ctx) (sched.Outcome, error) {
	out, err := it.progItem.Step(ctx)
	if err == nil && out.Done {
		it.clock.Commit(it.gseq)
	}
	return out, err
}

// RunPartitioned executes progs across plan.Parts cohort schedulers, one
// per ctx (one worker thread each), partitioned by plan.Home. Per-part
// scheduler stats are returned in partition order. Empty partitions
// return zero stats immediately.
func RunPartitioned(ctxs []*engine.Ctx, codes *mem.CodeMap, progs []Program, plan PartitionPlan, cfg Config) ([]Stats, error) {
	if plan.Parts <= 0 || len(ctxs) != plan.Parts {
		return nil, fmt.Errorf("oltp: %d contexts for %d partitions", len(ctxs), plan.Parts)
	}
	if len(plan.Home) != len(progs) || len(plan.Fence) != len(progs) {
		return nil, fmt.Errorf("oltp: plan covers %d/%d of %d programs", len(plan.Home), len(plan.Fence), len(progs))
	}
	clock := txn.NewSeqClock(plan.Fences())
	byPart := make([][]sched.Item, plan.Parts)
	for g, p := range progs {
		home := plan.Home[g]
		if home < 0 || home >= plan.Parts {
			return nil, fmt.Errorf("oltp: program %d homed at partition %d of %d", g, home, plan.Parts)
		}
		byPart[home] = append(byPart[home], &partItem{progItem{p}, g, clock})
	}

	s := NewScheduler(codes, cfg)
	stats := make([]Stats, plan.Parts)
	err := par.Do(plan.Parts, func(p int) error {
		core := s.coreConfig()
		// Each partition is one worker thread: relocate the span scope
		// so its txn/quantum spans land on simulated thread p.
		core.Obs = cfg.Obs.OnThread(p)
		core.Ready = func(it sched.Item) bool {
			pi := it.(*partItem)
			if pi.Kind() == int(StageCommit) {
				return pi.clock.CommitReady(pi.gseq)
			}
			return pi.clock.StepReady(pi.gseq)
		}
		var seen uint64
		rec := ctxs[p].Rec
		core.Wait = func() bool {
			// Commit-clock waits are host-side only (no simulated
			// cycles accrue), but the span still shows where the
			// partition sat blocked on another's commit.
			wsp := core.Obs.Begin(rec, "clock-wait", "wait")
			g, ok := clock.WaitChange(seen)
			wsp.End(rec)
			seen = g
			return ok
		}
		st, err := sched.New(core).Run(ctxs[p], byPart[p])
		stats[p] = fromSched(st)
		return err
	}, func(p int, err error) {
		// Wake the other partitions so one failure cannot leave them
		// blocked on a commit that will never happen.
		clock.Fail(fmt.Errorf("oltp: partition %d: %w", p, err))
	})
	if err != nil {
		// The first failure in time; the partitions it woke failed after it.
		return stats, clock.Err()
	}
	return stats, nil
}
