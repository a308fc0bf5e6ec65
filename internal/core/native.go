// Native (trace-free) host execution: the same DSS plans the simulator
// traces, run flat-out on the host with a nil trace recorder. This is
// the repo's second clock — wall time instead of simulated cycles — and
// the first measurement whose headline is host rows/sec: compiled
// predicates, selection vectors, batch hash tables, and morsel-driven
// parallelism across real cores. Each sweep point is the best of many
// short runs after a warmup, shaving scheduler noise. Every point returns
// the interpreted reference's rows byte for byte — the workers of a
// multi-worker point feed their morsels to the serial plan's aggregate in
// page order — so every point's digest is the reference's.

package core

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/workload"
)

// NativeRun is one native host-execution measurement point: query Query
// at Workers native workers (wall-clock timed, best of 50).
type NativeRun struct {
	Query   int
	Workers int
	// Interpreted marks the 1-worker reference point with compiled
	// predicates, hash kernels, and selection vectors disabled, so the
	// compiled-path speedup is self-contained in the sweep.
	Interpreted bool
	// Rows is base-table rows scanned per run; Nanos the best wall time.
	Rows  int
	Nanos int64
	// MedianNanos and IQRNanos summarize the 50 timed runs (median and
	// interquartile range), so the sweep records spread, not just the
	// floor.
	MedianNanos int64
	IQRNanos    int64
	// RowsPerSec is Rows divided by the best wall time.
	RowsPerSec float64
	// BytesScanned is base-table bytes read per run (rows × row width);
	// GBPerSec is the effective scan bandwidth at the best wall time —
	// the number the borrowed scans race against memory bandwidth.
	BytesScanned int
	GBPerSec     float64
	// ResultRows counts result rows; Digest is their RowsDigest, the
	// interpreted reference's at every point.
	ResultRows int
	Digest     uint64
}

// nativeWorkBytes sizes each native worker's workspace arena.
const nativeWorkBytes = 64 << 20

// RunNativeDSS measures query q natively at each worker count, preceded
// by the interpreted single-worker reference. Every compiled point runs
// the flavor the served native traffic runs: scans borrow buffer-pool
// pages in place (NativeOpts.ZeroCopy), and a joining plan (Q13) probes
// with join mode jm. Worker counts beyond the host's cores still run
// (goroutines share cores); their scaling numbers just reflect the
// hardware they got. A 1-worker point is the serial plan; a point whose
// digest is not the interpreted reference's fails the sweep.
func (r *Runner) RunNativeDSS(q int, workerCounts []int, seed int64, jm engine.JoinMode) ([]NativeRun, error) {
	if !workload.HasPlan(q) {
		return nil, fmt.Errorf("core: native DSS query %d (have %s)", q, plannedList(""))
	}
	if len(workerCounts) == 0 {
		workerCounts = []int{1}
	}
	h, err := r.TPCH()
	if err != nil {
		return nil, err
	}
	p := workload.RandomParams(rand.New(rand.NewSource(seed)))
	scanned := h.NativeRowsScanned(q)
	scannedBytes := h.NativeBytesScanned(q)

	maxW := 1
	for _, w := range workerCounts {
		if w > maxW {
			maxW = w
		}
	}
	// One nil-recorder Ctx per native worker, in join mode jm, reused
	// (arena reset) across every point of the sweep. Worker slots 90+ keep
	// the simulated workspace addresses clear of the traced experiments'
	// slots.
	ctxs := make([]*engine.Ctx, maxW)
	for w := range ctxs {
		ctxs[w] = h.DB.NewCtx(nil, 90+w, nativeWorkBytes)
		ctxs[w].JoinMode = jm
	}
	// Each point is three untimed warmups (page in the scan range, size
	// the hash tables, let the core ramp) then 50 timed runs — test-scale
	// queries run in a millisecond or two, where any single timing is one
	// descheduling or GC assist away from garbage, and the floor keeps
	// dropping for dozens of runs as caches and branch predictors settle.
	// The minimum is the floor a point reaches once everything has
	// settled; the median and interquartile range record the spread.
	measure := func(run func() ([][]engine.Value, error)) (rows [][]engine.Value, best, median, iqr int64, err error) {
		var times []int64
		for i := 0; i < 53; i++ {
			for _, c := range ctxs {
				c.Work.Reset()
			}
			start := time.Now()
			rows, err = run()
			d := time.Since(start).Nanoseconds()
			if err != nil {
				return nil, 0, 0, 0, err
			}
			if i >= 3 {
				times = append(times, d)
			}
		}
		sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
		return rows, times[0], times[25], times[37] - times[12], nil
	}
	point := func(workers int, interpreted bool, rows [][]engine.Value, best, median, iqr int64) NativeRun {
		n := NativeRun{
			Query: q, Workers: workers, Interpreted: interpreted,
			Rows: scanned, Nanos: best, MedianNanos: median, IQRNanos: iqr,
			BytesScanned: scannedBytes, ResultRows: len(rows), Digest: RowsDigest(rows),
		}
		if best > 0 {
			n.RowsPerSec = float64(scanned) / (float64(best) / 1e9)
			n.GBPerSec = float64(scannedBytes) / float64(best)
		}
		return n
	}

	var out []NativeRun
	rows, best, median, iqr, err := measure(func() ([][]engine.Value, error) {
		return h.RunQueryNative(ctxs[0], q, p, workload.NativeOpts{Interpret: true, Compact: true})
	})
	if err != nil {
		return nil, fmt.Errorf("core: native q%d interpreted: %w", q, err)
	}
	out = append(out, point(1, true, rows, best, median, iqr))

	o := workload.NativeOpts{ZeroCopy: true}
	for _, w := range workerCounts {
		rows, best, median, iqr, err := measure(func() ([][]engine.Value, error) {
			return h.RunQueryParallelNative(ctxs[:w], q, p, o)
		})
		if err != nil {
			return nil, fmt.Errorf("core: native q%d workers=%d: %w", q, w, err)
		}
		pt := point(w, false, rows, best, median, iqr)
		if pt.Digest != out[0].Digest {
			return nil, fmt.Errorf("core: native q%d workers=%d: digest %#x, interpreted %#x",
				q, w, pt.Digest, out[0].Digest)
		}
		out = append(out, pt)
	}
	// Borrowed blocks pin buffer-pool pages for their lifetime; a sweep
	// that ends with outstanding leases has leaked a pin somewhere in an
	// operator's close path. Counted on the sweep's own contexts: the pool
	// is shared with whatever else the Runner is serving.
	for _, c := range ctxs {
		if n := c.Leases(); n != 0 {
			return nil, fmt.Errorf("core: native q%d sweep leaked %d page leases", q, n)
		}
	}
	return out, nil
}
