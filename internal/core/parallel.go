// Intra-query parallelism experiments: one DSS query executed by the
// morsel-driven parallel executor, each worker bound to its own hardware
// context of a fresh simulated chip. Cycles-to-completion across worker
// counts measures how much of the chip a single query can use — the
// restructuring-for-CMPs opportunity the paper argues for.

package core

import (
	"fmt"
	"math/rand"

	"repro/internal/obs"
	"repro/internal/workload"
)

// ParallelJoinQuery selects the Q13 join core (the shared partition-wise
// build and every worker's probe of it) in a parallel-dss request,
// alongside the real analogs 1 and 6.
const ParallelJoinQuery = 13

// parallelLabel names a parallel-dss sweep point.
func parallelLabel(workers int) string { return fmt.Sprintf("parallel-%d", workers) }

// parallelDSS runs the query of req with the morsel-driven executor on a
// fresh chip: workers worker goroutines, each with its own trace stream on
// its own hardware context. ParallelJoinQuery runs its join alone. The
// cell's cores grow to the largest worker count of req's sweep, so every
// worker has a core of its own (FC has one context per core; LC cores carry
// several contexts each) and every point of the sweep runs on one geometry:
// the cycle ratio measures executor scaling, not hardware scaling. The
// side, labeled parallelLabel, reports the slowest worker's completion
// cycle (the query's parallel response time), result rows (join output
// rows for the join) and a digest of the row count only: multi-worker float
// aggregates agree with serial runs up to addition order, and the addition
// order follows morsel claiming, so value bits differ between worker
// counts.
//
// The measurement repeats exactly, on any host and beside any load: the
// workers run ahead of the simulator as far as their pipes let them, but
// each morsel claim is made at the simulated instant the claiming thread
// reaches it (engine.MorselScanVec, trace.Recorder.AtPace). Claims that
// fall inside the warm-up prefix are made in sim.Chip.Warm's order, thread
// 0's whole prefix first, so at a scale where a scan is shorter than the
// prefix the first worker takes most of it.
func (r *Runner) parallelDSS(req Request, workers int) (Side, error) {
	h, err := r.TPCH()
	if err != nil {
		return Side{}, err
	}
	cell := *req.Cell
	cell.Cores = max(cell.Cores, workers)
	for _, n := range req.WorkerCounts {
		cell.Cores = max(cell.Cores, n)
	}
	th := newThreads(workers, false)
	ctxs := r.dssCtxs(req, h.DB, th, 64)
	p := workload.RandomParams(rand.New(rand.NewSource(req.Seed)))
	var rows int
	side, err := r.simulate(run{
		label: parallelLabel(workers), cell: cell, threads: th, done: workers,
		work: ctxs, traced: req.Trace,
		produce: func(obs.Scope) (err error) {
			if req.Query == ParallelJoinQuery {
				rows, err = h.RunJoinParallel(ctxs, req.Query, p)
				return err
			}
			res, err := h.RunQueryParallelNative(ctxs, req.Query, p, workload.NativeOpts{})
			rows = len(res)
			return err
		},
	})
	if err != nil {
		return Side{}, fmt.Errorf("core: parallel q%d x%d: %w", req.Query, workers, err)
	}
	side.Rows, side.Digest, side.Workers = rows, countDigest(rows), workers
	return side, nil
}
