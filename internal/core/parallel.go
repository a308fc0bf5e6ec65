// Intra-query parallelism experiments: one DSS query executed by the
// morsel-driven parallel executor, each worker bound to its own hardware
// context of a fresh simulated chip. Cycles-to-completion across worker
// counts measures how much of the chip a single query can use — the
// restructuring-for-CMPs opportunity the paper argues for.

package core

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/workload"
)

// ParallelJoinQuery selects the Q13 join core (the shared partition-wise
// build and every worker's probe of it) in RunParallelDSS, alongside the
// real analogs 1 and 6.
const ParallelJoinQuery = 13

// RunParallelDSS executes one query with the morsel-driven executor on a
// fresh chip described by cell (camp, cores, L2 geometry, warming):
// workers worker goroutines, each with its own trace stream on its own
// hardware context. q is a planned query; ParallelJoinQuery runs its join
// alone. cell.Cores is grown to workers when smaller, so every worker has
// a core of its own (FC has one context per core; LC cores carry several
// contexts each); callers comparing worker counts must pass the same cell
// geometry for each — a parallel-dss request's sweep does — or the cycle
// ratio mixes in hardware scaling. An optional join mode pins the
// hash-join strategy of joining plans (Q13); omitted, the auto policy
// decides from the build's size estimate, as for a serial join. The side, labeled "parallel-N", reports
// the slowest worker's completion cycle (the query's parallel response
// time), result rows (join output rows for the join) and a digest of the
// row count only: multi-worker float aggregates agree with serial runs up
// to addition order, and the addition order follows morsel claiming, so
// value bits differ between worker counts.
//
// The measurement repeats exactly, on any host and beside any load: the
// workers run ahead of the simulator as far as their pipes let them, but
// each morsel claim is made at the simulated instant the claiming thread
// reaches it (engine.MorselScanVec, trace.Recorder.AtPace). Claims that
// fall inside the warm-up prefix are made in sim.Chip.Warm's order, thread
// 0's whole prefix first, so at a scale where a scan is shorter than the
// prefix the first worker takes most of it.
func (r *Runner) RunParallelDSS(cell Cell, q, workers int, seed int64, mode ...engine.JoinMode) (Side, error) {
	return r.parallelDSS(cell, q, workers, seed, false, mode...)
}

// parallelLabel names a parallel-dss sweep point.
func parallelLabel(workers int) string { return fmt.Sprintf("parallel-%d", workers) }

// parallelDSS is RunParallelDSS, with a root-span trace when traced.
func (r *Runner) parallelDSS(cell Cell, q, workers int, seed int64, traced bool, mode ...engine.JoinMode) (Side, error) {
	if workers <= 0 {
		return Side{}, fmt.Errorf("core: parallel DSS with %d workers", workers)
	}
	h, err := r.TPCH()
	if err != nil {
		return Side{}, err
	}
	cell.Cores = max(cell.Cores, workers)
	th := newThreads(workers, false)
	ctxs := make([]*engine.Ctx, workers)
	for w, rec := range th.recs {
		ctxs[w] = r.workCtx(h.DB, rec, 64+w, dssWorkBytes)
		ctxs[w].Join = r.Join
		if len(mode) > 0 {
			ctxs[w].JoinMode = mode[0]
		}
	}
	p := workload.RandomParams(rand.New(rand.NewSource(seed)))
	var rows int
	side, err := r.simulate(run{
		label: parallelLabel(workers), cell: cell, threads: th, warm: 50000, done: workers,
		work: ctxs, traced: traced,
		produce: func(obs.Scope) (err error) {
			if q == ParallelJoinQuery {
				rows, err = h.RunJoinParallel(ctxs, q, p)
				return err
			}
			res, err := h.RunQueryParallelNative(ctxs, q, p, workload.NativeOpts{})
			rows = len(res)
			return err
		},
	})
	if err != nil {
		return Side{}, fmt.Errorf("core: parallel q%d x%d: %w", q, workers, err)
	}
	side.Rows, side.Digest, side.Workers = rows, countDigest(rows), workers
	return side, nil
}
