package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Scale sizes the workload databases. Experiments share one loaded
// database per kind (the paper measures from warmed checkpoints of one
// database instance).
type Scale struct {
	TPCC workload.TPCCConfig
	TPCH workload.TPCHConfig
}

// FullScale is the default experiment scale: OLTP ~25 MB hot structure
// (primary working set captured between 8 and 16 MB, per the paper) and a
// DSS lineitem well beyond the largest 26 MB cache.
func FullScale() Scale {
	return Scale{
		TPCC: workload.TPCCConfig{Warehouses: 4, Items: 20000, CustPerDis: 500, ArenaBytes: 256 << 20},
		TPCH: workload.TPCHConfig{Lineitems: 400000, ArenaBytes: 256 << 20},
	}
}

// TestScale is a small fast scale for unit tests.
func TestScale() Scale {
	return Scale{
		TPCC: workload.TPCCConfig{Warehouses: 2, Items: 2000, CustPerDis: 100, ArenaBytes: 96 << 20},
		TPCH: workload.TPCHConfig{Lineitems: 40000, ArenaBytes: 96 << 20},
	}
}

// Runner executes experiment cells and requests, lazily building and then
// reusing the workload databases. It is safe for concurrent callers.
type Runner struct {
	ScaleCfg Scale

	// Sched, when its histogram fields are set (obs.Registry-backed in
	// the server), receives scheduler-internals observations — quantum
	// lengths, park durations — from every staged-OLTP run. The zero
	// value discards them.
	Sched obs.SchedMetrics

	// Join, when set, receives hash-join build observations — chain-length
	// distribution, partition fan-out — from the traced DSS runs. The zero
	// value discards them. Native (wall-clock) sweeps never observe: the
	// chain walk would tax the timed loop.
	Join obs.JoinMetrics

	// Forks, when set, counts and times the private TPC-C databases forked
	// from the resident image, one per staged-OLTP side. The zero value
	// discards the observations.
	Forks obs.ForkMetrics

	// Loads, when set, times the lazy database loads below — the TPC-H
	// build, the TPC-C build, the build and snapshot of the TPC-C master
	// image — which the first request that needs a database pays for. The
	// zero value discards the observations.
	Loads obs.LoadMetrics

	// Sides, when set, counts every side of every request by whether it ran
	// beside its twin or alone (see Run). The zero value discards the
	// counts.
	Sides obs.SideMetrics

	mu sync.Mutex
	// tpcc and tpch are the shared databases RunCell's clients and the DSS
	// modes run against; tpcc is mutated by every OLTP cell.
	tpcc *workload.TPCC
	tpch *workload.TPCH
	// master is the resident TPC-C image every staged-OLTP side forks its
	// private database from. It is built once, never written afterwards,
	// and is a separate object from tpcc. It owns no arena: the one it was
	// loaded in went to arenas when the image had been taken.
	master *workload.TPCCImage

	// arenas holds what finished runs handed back: DSS and OLTP workspaces
	// and the database arenas of staged-OLTP forks. A run owns an arena
	// from take until it puts it back, which it does only once nothing of
	// the run — query goroutines, producers, the digest — can touch it.
	arenas arenaPool

	// hiers holds the memory hierarchies of finished simulations, which the
	// next one of the same geometry resets instead of allocating its own.
	hiers hierPool
}

const (
	// dssWorkBytes is every traced DSS context's workspace size and
	// oltpWorkBytes every staged-OLTP worker's.
	dssWorkBytes  = 64 << 20
	oltpWorkBytes = 8 << 20
	// maxFreeBytes bounds the arenas a Runner retains of each size. What is
	// parked is what requests held at once, and a request holds the arenas
	// of two sides at once when it overlaps them: the widest served request
	// (shared-dss mix at 8 clients) has the unshared side's 8 DSS workspaces
	// and the shared side's 8 + 4 producer workers' live together, 20, and a
	// serial pair served beside it 2 more. At 24 DSS workspaces (1.5 GB) all
	// of them park and the next such request allocates none; under a bound
	// below 20 every shared-dss request allocates, and the collector frees,
	// the difference. The same bytes are 16 test-scale or 6 full-scale
	// TPC-C arenas — two per staged-oltp request in flight — and more OLTP
	// workspaces than validation admits partitions. Only the pages a run
	// touched are resident, so the bound is mostly address space.
	maxFreeBytes = 24 * dssWorkBytes
	// maxFreeHiers bounds the parked hierarchies (10 MB each at the default
	// 26 MB L2): two sides each of eight requests in flight.
	maxFreeHiers = 16
)

// arenaPool is a set of free lists of arenas, one per arena size, so that
// a run recycles what an earlier one allocated instead of allocating and
// zeroing tens of megabytes per context per simulation.
type arenaPool struct {
	mu   sync.Mutex
	free map[int][]*mem.Arena
}

// take returns an arena of size bytes based at base that reads as a fresh
// one: a parked arena with what its last owner wrote cleared (up to its
// allocation high-water mark; nothing for a database arena, which
// engine.DB.Release scrubs because only the buffer pool knows which
// frames it dirtied), or a new one when none is parked.
func (p *arenaPool) take(base mem.Addr, size int) *mem.Arena {
	p.mu.Lock()
	var a *mem.Arena
	if l := p.free[size]; len(l) > 0 {
		a, p.free[size] = l[len(l)-1], l[:len(l)-1]
	}
	p.mu.Unlock()
	if a == nil {
		return mem.NewArena(base, size)
	}
	a.Recycle(base)
	return a
}

// put parks an arena for reuse, unless maxFreeBytes of its size are parked
// already: then it is left to the collector. The caller must hold the
// only reference.
func (p *arenaPool) put(a *mem.Arena) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.free == nil {
		p.free = make(map[int][]*mem.Arena)
	}
	if l := p.free[a.Size()]; (len(l)+1)*a.Size() <= maxFreeBytes {
		p.free[a.Size()] = append(l, a)
	}
}

// hierPool parks memory hierarchies for reuse, whatever their geometry; the
// oldest makes room when maxFreeHiers are parked, so geometries no request
// asks for any more age out.
type hierPool struct {
	mu   sync.Mutex
	free []*cache.Hierarchy
}

// take returns a hierarchy of geometry cfg (defaults applied) in the state
// cache.NewHierarchy leaves one: a parked one, reset, or a new one.
func (p *hierPool) take(cfg cache.Config) *cache.Hierarchy {
	p.mu.Lock()
	var h *cache.Hierarchy
	for i := len(p.free) - 1; i >= 0 && h == nil; i-- {
		if p.free[i].Config() == cfg {
			h = p.free[i]
			p.free = slices.Delete(p.free, i, i+1)
		}
	}
	p.mu.Unlock()
	if h == nil {
		return cache.NewHierarchy(cfg)
	}
	h.Reset()
	return h
}

// put parks a hierarchy no chip uses any more.
func (p *hierPool) put(h *cache.Hierarchy) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) == maxFreeHiers {
		p.free = slices.Delete(p.free, 0, 1)
	}
	p.free = append(p.free, h)
}

// workCtx builds the engine context of worker slot worker over a
// workBytes workspace from the Runner's free lists, at the slot's
// simulated base address. Callers pass every context they took to
// releaseWork once nothing of the run can touch its workspace again.
func (r *Runner) workCtx(db *engine.DB, rec *trace.Recorder, worker, workBytes int) *engine.Ctx {
	return db.NewCtxOn(rec, r.arenas.take(engine.WorkSlotBase(worker, workBytes), workBytes))
}

// releaseWork returns the contexts' workspaces to the free lists. They
// are parked dirty and cleared when next taken, so a Runner that never
// runs again zeroes nothing.
func (r *Runner) releaseWork(ctxs ...*engine.Ctx) {
	for _, c := range ctxs {
		r.arenas.put(c.Work)
	}
}

// NewRunner creates a runner at the given scale.
func NewRunner(s Scale) *Runner { return &Runner{ScaleCfg: s} }

// clientSeed is deterministic per (workload, client) so paired cells —
// e.g. the FC and LC sides of Figure 4 — replay the same request
// sequences, the paper's paired-measurement methodology.
func clientSeed(wk WorkloadKind, client int) int64 {
	return 7919 + int64(wk)*1009 + int64(client)*31
}

// TPCC returns the shared OLTP database, building it on first use.
func (r *Runner) TPCC() (*workload.TPCC, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tpcc == nil {
		start := time.Now()
		w, err := workload.BuildTPCC(r.ScaleCfg.TPCC)
		if err != nil {
			return nil, err
		}
		r.Loads.Observe("tpcc", time.Since(start))
		r.tpcc = w
	}
	return r.tpcc, nil
}

// tpccImage returns the resident TPC-C image, loading it on first use.
func (r *Runner) tpccImage() (*workload.TPCCImage, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.master == nil {
		start := time.Now()
		w, err := workload.BuildTPCC(r.ScaleCfg.TPCC)
		if err != nil {
			return nil, err
		}
		img, err := w.Image()
		if err != nil {
			return nil, err
		}
		r.Loads.Observe("tpcc", time.Since(start))
		// The image is a copy of the pages in use; the arena it was loaded
		// in becomes the first fork's.
		r.master = img
		r.arenas.put(w.DB.Release())
	}
	return r.master, nil
}

// forkTPCC returns a private TPC-C database in the loaded state, forked
// from the resident image into a database arena from the free lists. The
// caller owns it, and ends its life by parking the arena its Release
// returns.
func (r *Runner) forkTPCC() (*workload.TPCC, error) {
	m, err := r.tpccImage()
	if err != nil {
		return nil, err
	}
	// Timed from taking the arena: when none is parked the fork pays for
	// allocating one, as every build used to.
	start := time.Now()
	w, err := m.Fork(r.arenas.take(mem.HeapBase, m.ArenaBytes()))
	if err != nil {
		return nil, fmt.Errorf("core: fork of the TPC-C image: %w", err)
	}
	r.Forks.Observe(time.Since(start))
	return w, nil
}

// TPCH returns the shared DSS database, building it on first use.
func (r *Runner) TPCH() (*workload.TPCH, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tpch == nil {
		start := time.Now()
		h, err := workload.BuildTPCH(r.ScaleCfg.TPCH)
		if err != nil {
			return nil, err
		}
		r.Loads.Observe("tpch", time.Since(start))
		r.tpch = h
	}
	return r.tpch, nil
}

// RunCell executes one characterization cell: it spawns one traced
// client per Cell.Clients, binds their streams to a chip, functionally
// warms the caches, measures, and tears the clients down. The
// executor-comparison modes live behind Run (the unified request API);
// RunCell is the figure/table machinery underneath the paper's
// characterization experiments.
func (r *Runner) RunCell(c Cell) (CellResult, error) {
	// client runs client i to its end, returning the work it completed.
	var client func(rec *trace.Recorder, i int) (int, error)
	switch c.Workload {
	case OLTP:
		w, err := r.TPCC()
		if err != nil {
			return CellResult{}, err
		}
		limit := 0
		if !c.Saturated {
			limit = c.UnsatTxns
		}
		client = func(rec *trace.Recorder, i int) (int, error) {
			counts, err := w.Client(rec, i, clientSeed(OLTP, i), limit)
			return counts.Total(), err
		}
	case DSS:
		h, err := r.TPCH()
		if err != nil {
			return CellResult{}, err
		}
		client = func(rec *trace.Recorder, i int) (int, error) {
			if c.Saturated {
				return h.Client(rec, i, clientSeed(DSS, i), 0, c.RowPlans)
			}
			return 1, h.RunOnce(rec, i, c.UnsatQuery, clientSeed(DSS, i), c.RowPlans)
		}
	default:
		return CellResult{}, fmt.Errorf("core: unknown workload %v", c.Workload)
	}

	th := newThreads(c.Clients, false)
	work := make([]int, c.Clients)
	var window uint64 // unsaturated runs go to completion
	if c.Saturated {
		window = c.WindowCycles
	}
	side, err := r.simulate(run{
		label: c.String(), cell: c, threads: th, window: window, done: 1,
		produce: func(obs.Scope) error {
			return par.Do(c.Clients, func(i int) (err error) {
				if work[i], err = client(th.recs[i], i); err != nil {
					return fmt.Errorf("core: client %d: %w", i, err)
				}
				return nil
			}, nil)
		},
	})
	if err != nil {
		return CellResult{}, err
	}

	res := side.Result
	out := CellResult{Cell: c, Result: res, Throughput: res.IPC()}
	for _, n := range work {
		out.Work += n
	}
	if !c.Saturated {
		switch c.Workload {
		case OLTP:
			// Paired cells replay the identical transaction sequence
			// (same seed), so per-transaction response time is
			// proportional to CPI on that fixed instruction stream;
			// warming consumes an unknown prefix of transactions, which
			// cancels out of the ratio the experiments report.
			out.ResponseCycles = res.CPI() * nominalTxnInstructions
		case DSS:
			out.ResponseCycles = float64(side.Cycles) / float64(max(out.Work, 1))
		}
	}
	return out, nil
}

// nominalTxnInstructions scales unsaturated OLTP CPI into cycles per
// transaction for reporting; only ratios between cells are meaningful.
const nominalTxnInstructions = 25000
