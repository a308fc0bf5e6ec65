// Intra-query parallelism experiments: one DSS query executed by the
// morsel-driven parallel executor, each worker bound to its own hardware
// context of a fresh simulated chip. Cycles-to-completion across worker
// counts measures how much of the chip a single query can use — the
// restructuring-for-CMPs opportunity the paper argues for.

package core

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ParallelJoinQuery selects the Q13 join core (partitioned parallel hash
// join) in RunParallelDSS, alongside the real analogs 1 and 6.
const ParallelJoinQuery = 13

// ParallelDSSResult is one parallel-query measurement.
type ParallelDSSResult struct {
	Camp    sim.Camp
	Query   int
	Workers int
	// Cycles is the completion cycle of the slowest worker: the query's
	// parallel response time.
	Cycles uint64
	Result sim.Result
	// Rows is result rows (queries) or join output rows (join mode).
	Rows int
	// Digest fingerprints the row count only: multi-worker float
	// aggregates agree with serial runs up to addition order, and the
	// addition order follows morsel claiming, so value bits differ
	// between worker counts.
	Digest uint64
}

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
// decides per worker partition.
//
// The measurement repeats exactly, on any host and beside any load: the
// workers run ahead of the simulator as far as their pipes let them, but
// each morsel claim is made at the simulated instant the claiming thread
// reaches it (engine.MorselScanVec, trace.Recorder.AtPace). Claims that
// fall inside the warm-up prefix are made in sim.Chip.Warm's order, thread
// 0's whole prefix first, so at a scale where a scan is shorter than the
// prefix the first worker takes most of it.
func (r *Runner) RunParallelDSS(cell Cell, q, workers int, seed int64, mode ...engine.JoinMode) (ParallelDSSResult, error) {
	if workers <= 0 {
		return ParallelDSSResult{}, fmt.Errorf("core: parallel DSS with %d workers", workers)
	}
	h, err := r.TPCH()
	if err != nil {
		return ParallelDSSResult{}, err
	}
	if cell.Cores < workers {
		cell.Cores = workers
	}
	chip := r.newChip(cell)

	ctxs := make([]*engine.Ctx, workers)
	recs := make([]*trace.Recorder, workers)
	streams := make([]*trace.Stream, workers)
	for w := 0; w < workers; w++ {
		rec, s := trace.Pipe()
		recs[w], streams[w] = rec, s
		chip.AddThread(s)
		ctxs[w] = r.workCtx(h.DB, rec, 64+w, dssWorkBytes)
		ctxs[w].Join = r.Join
		if len(mode) > 0 {
			ctxs[w].JoinMode = mode[0]
		}
	}

	p := workload.RandomParams(rand.New(rand.NewSource(seed)))
	var rows int
	var runErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if q == ParallelJoinQuery {
			rows, runErr = h.RunJoinParallel(ctxs, q, p)
		} else {
			var res [][]engine.Value
			res, runErr = h.RunQueryParallelNative(ctxs, q, p, workload.NativeOpts{})
			rows = len(res)
		}
		for _, rec := range recs {
			rec.Close()
		}
	}()

	warm := cell.WarmRefs
	if warm <= 0 {
		warm = 50000
	}
	chip.Warm(warm)
	res := chip.Run(1 << 34)
	// Stop every stream before draining any: a worker released from one
	// stream may wait at a barrier for a peer still blocked on another.
	for _, s := range streams {
		s.Stop()
	}
	for _, s := range streams {
		for {
			if _, ok := s.Next(); !ok {
				break
			}
		}
	}
	wg.Wait()
	// No worker touches a workspace from here (released here and not by
	// defer: see RunVecDSS).
	r.releaseWork(ctxs...)
	r.releaseChip(chip)
	if runErr != nil {
		return ParallelDSSResult{}, fmt.Errorf("core: parallel q%d x%d: %w", q, workers, runErr)
	}

	var last uint64
	for _, d := range res.ThreadDone {
		if d > last {
			last = d
		}
	}
	if last == 0 {
		last = res.Cycles
	}
	return ParallelDSSResult{
		Camp: cell.Camp, Query: q, Workers: workers,
		Cycles: last, Result: res, Rows: rows, Digest: countDigest(rows),
	}, nil
}
