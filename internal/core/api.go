// The unified execution API: one typed Request describing what to run
// (mode, query or transaction mix, clients, partitioning, geometry) and
// one Result carrying every measurement the drivers report. Runner.Run
// is the single entry point behind cmd/cmpsim, cmd/dbserver and bench.

package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/oltp"
	"repro/internal/share"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Mode names one execution mode of the unified request API.
type Mode string

// The four request modes. Every mode is a paired measurement: the
// subject execution and its reference twin on identical chip geometry.
const (
	// ModeVecDSS runs one serial DSS query on the vectorized executor
	// against the row-at-a-time reference path.
	ModeVecDSS Mode = "vec-dss"
	// ModeSharedDSS runs K concurrent DSS clients through the circular
	// shared-scan registry against K private scans.
	ModeSharedDSS Mode = "shared-dss"
	// ModeParallelDSS runs one DSS query on the morsel-driven parallel
	// executor across a sweep of worker counts.
	ModeParallelDSS Mode = "parallel-dss"
	// ModeStagedOLTP runs a deterministic transaction batch on the
	// cohort-scheduled staged executor (optionally partitioned) against
	// the monolithic reference, digests checked byte-identical.
	ModeStagedOLTP Mode = "staged-oltp"
)

// ParseMode maps a wire/flag string onto a Mode.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case ModeVecDSS, ModeSharedDSS, ModeParallelDSS, ModeStagedOLTP:
		return Mode(s), nil
	}
	return "", &ValidationError{Field: "mode", Reason: fmt.Sprintf("unknown mode %q (have vec-dss, shared-dss, parallel-dss, staged-oltp)", s)}
}

// ValidationError reports a request or option field that fails
// validation before any simulation work starts.
type ValidationError struct {
	Field  string
	Reason string
}

func (e *ValidationError) Error() string {
	return "core: invalid " + e.Field + ": " + e.Reason
}

// Upper bounds on the counts a request may ask for. Each unit costs a
// simulated chip thread, a trace pipe and a workspace (64 MB per DSS client
// or worker, 8 MB per partition) or, for clients x txns, one pre-drawn
// transaction, and each entry of a swept list (worker_counts, part_counts,
// native_workers; at most maxSweep) a whole side or native point, so an
// unbounded count from the wire exhausts memory instead of failing the
// request. They are several times what any driver, test or benchmark
// request in the repository uses, and constants on purpose.
const (
	maxClients = 128
	maxWorkers = 64
	maxParts   = 64
	maxTxns    = 1024
	maxCohort  = 1024
	maxSweep   = 16
)

// checkCount returns a *ValidationError naming field unless 1 <= n <= limit.
func checkCount(field, what string, n, limit int) error {
	if n < 1 || n > limit {
		return &ValidationError{Field: field, Reason: fmt.Sprintf("%d %s (need 1..%d)", n, what, limit)}
	}
	return nil
}

// checkSweep returns a *ValidationError naming list unless it has at most
// maxSweep entries, and otherwise checkCount's verdict on the first entry
// outside 1..limit.
func checkSweep(list string, ns []int, field, what string, limit int) error {
	if len(ns) > maxSweep {
		return &ValidationError{Field: list, Reason: fmt.Sprintf("%d entries (need at most %d)", len(ns), maxSweep)}
	}
	for _, n := range ns {
		if err := checkCount(field, what, n, limit); err != nil {
			return err
		}
	}
	return nil
}

// Request describes one unified-API execution. The zero value of every
// field means "mode default"; WithDefaults resolves them in one place.
type Request struct {
	Mode Mode

	// Query is the DSS analog, one of workload.Planned (shared-dss also
	// accepts 0 for their mix). Default 6.
	Query int
	// Clients is the shared-dss consumer count or the staged-oltp
	// logical client-stream count. Default 8.
	Clients int
	// Workers is the parallel-dss target worker count. Default 4.
	Workers int
	// WorkerCounts optionally sweeps parallel-dss worker counts on one
	// pinned chip geometry. Default {1, Workers}.
	WorkerCounts []int
	// Txns is transactions per staged-oltp client. Default 8.
	Txns int
	// Cohort is the staged-oltp in-flight window. Default 16.
	Cohort int
	// Parts partitions the staged-oltp cohort side by home warehouse.
	// Default 1.
	Parts int
	// PartCounts optionally sweeps staged-oltp partition counts against
	// one monolithic reference. Default {Parts}.
	PartCounts []int
	// RemotePct is the staged-oltp cross-warehouse draw percentage.
	RemotePct int
	// NativeWorkers, when non-empty, additionally runs the query natively
	// on the host (trace-free, wall-clock timed) at each listed worker
	// count, populating Result.Native. DSS modes with a single query only.
	NativeWorkers []int
	// NativeZeroCopy additionally measures each native worker count with
	// borrowed page-aliasing scan blocks, recording the copy-vs-borrow
	// pair side by side. Requires NativeWorkers.
	NativeZeroCopy bool
	// JoinMode pins the hash-join strategy of joining plans (Q13):
	// "chained", "partitioned", "prefetch", or ""/"auto" for the
	// build-size policy. Applies to both the traced runs and the native
	// sweep.
	JoinMode string
	// Seed drives every deterministic input stream. Default 7.
	Seed int64
	// Cell overrides the chip geometry and its warm-up (WarmRefs per
	// thread, 0 for none); nil picks DefaultModeCell on the fat camp.
	Cell *Cell
	// Trace collects dual-clock spans (Result.Traces) for every side. Off
	// by default. Span markers ride the trace stream but cost no cycle and
	// no warm-up budget, so a self-paced side (see Run) simulates the same
	// cycles traced or untraced.
	Trace bool
}

// DefaultModeCell is the baseline geometry for mode on camp: the paper's
// 4-core chip with the mode's functional-warming budget (heavy warming
// would consume a whole measured run for the short-trace modes).
func DefaultModeCell(mode Mode, camp sim.Camp) Cell {
	switch mode {
	case ModeStagedOLTP:
		c := DefaultCell(camp, OLTP, false)
		c.WarmRefs = 10000
		return c
	case ModeVecDSS:
		c := DefaultCell(camp, DSS, true)
		c.WarmRefs = 5000
		return c
	case ModeParallelDSS:
		c := DefaultCell(camp, DSS, true)
		c.WarmRefs = 50000
		return c
	default: // ModeSharedDSS and unknown: the multi-client DSS baseline.
		c := DefaultCell(camp, DSS, true)
		c.WarmRefs = 20000
		return c
	}
}

// WithDefaults resolves every zero-valued field to its mode default,
// including materializing the geometry cell. Negative values are left in
// place for Validate to reject.
func (q Request) WithDefaults() Request {
	if q.Query == 0 && q.Mode != ModeSharedDSS {
		q.Query = 6
	}
	if q.Clients == 0 {
		q.Clients = 8
	}
	if q.Workers == 0 {
		q.Workers = 4
	}
	if q.Txns == 0 {
		q.Txns = 8
	}
	if q.Cohort == 0 {
		q.Cohort = 16
	}
	if q.Parts == 0 {
		q.Parts = 1
	}
	if q.Seed == 0 {
		q.Seed = 7
	}
	if q.Mode == ModeParallelDSS && len(q.WorkerCounts) == 0 {
		q.WorkerCounts = []int{1, q.Workers}
	}
	if q.Mode == ModeStagedOLTP && len(q.PartCounts) == 0 {
		q.PartCounts = []int{q.Parts}
	}
	if q.Cell == nil {
		cell := DefaultModeCell(q.Mode, sim.FatCamp)
		q.Cell = &cell
	}
	return q
}

// Validate rejects an unrunnable request with a *ValidationError. It
// assumes WithDefaults has resolved zero values; Run applies both.
func (q Request) Validate() error {
	if _, err := ParseMode(string(q.Mode)); err != nil {
		return err
	}
	switch q.Mode {
	case ModeVecDSS, ModeParallelDSS:
		if !workload.HasPlan(q.Query) {
			return &ValidationError{Field: "query", Reason: fmt.Sprintf("query %d (have %s)", q.Query, plannedList(""))}
		}
	case ModeSharedDSS:
		if q.Query != 0 && !workload.HasPlan(q.Query) {
			return &ValidationError{Field: "query", Reason: fmt.Sprintf("query %d (have %s, or 0 for the mix)", q.Query, plannedList(""))}
		}
	}
	if err := checkCount("clients", "clients", q.Clients, maxClients); err != nil {
		return err
	}
	if err := checkCount("workers", "workers", q.Workers, maxWorkers); err != nil {
		return err
	}
	if err := checkSweep("worker_counts", q.WorkerCounts, "workers", "workers in the sweep", maxWorkers); err != nil {
		return err
	}
	if len(q.NativeWorkers) > 0 {
		if q.Mode == ModeStagedOLTP {
			return &ValidationError{Field: "native_workers", Reason: "native execution is DSS-only (staged-oltp has no native path)"}
		}
		if !workload.HasPlan(q.Query) {
			return &ValidationError{Field: "native_workers", Reason: fmt.Sprintf("native execution needs a single query %s (query %d)", plannedList("or"), q.Query)}
		}
		if err := checkSweep("native_workers", q.NativeWorkers, "native_workers", "native workers", maxWorkers); err != nil {
			return err
		}
	}
	if q.NativeZeroCopy && len(q.NativeWorkers) == 0 {
		return &ValidationError{Field: "native_zero_copy", Reason: "zero-copy native measurement needs native_workers"}
	}
	if _, err := engine.ParseJoinMode(q.JoinMode); err != nil {
		return &ValidationError{Field: "join_mode", Reason: err.Error()}
	}
	if q.Cell != nil {
		if err := q.Cell.validate(); err != nil {
			return err
		}
	}
	if q.Mode == ModeStagedOLTP {
		return q.validateStaged()
	}
	return nil
}

// validateStaged rejects a staged-oltp request whose batch would exhaust
// memory (see the max* constants), or whose partitioning or remote draw
// would panic deep in the partitioner.
func (q Request) validateStaged() error {
	if err := checkCount("txns", "transactions per client", q.Txns, maxTxns); err != nil {
		return err
	}
	if err := checkCount("cohort", "transactions in the cohort window", q.Cohort, maxCohort); err != nil {
		return err
	}
	if err := checkCount("parts", "partitions", q.Parts, maxParts); err != nil {
		return err
	}
	if q.RemotePct < 0 || q.RemotePct > 100 {
		return &ValidationError{Field: "remote", Reason: fmt.Sprintf("remote%% %d outside [0,100]", q.RemotePct)}
	}
	return checkSweep("part_counts", q.PartCounts, "parts", "partitions", maxParts)
}

// plannedList formats workload.Planned for messages, "1, 6, 13"; a
// non-empty conj goes before the last query ("1, 6, or 13").
func plannedList(conj string) string {
	qs := workload.Planned()
	parts := make([]string, len(qs))
	for i, q := range qs {
		parts[i] = strconv.Itoa(q)
	}
	if conj != "" {
		parts[len(parts)-1] = conj + " " + parts[len(parts)-1]
	}
	return strings.Join(parts, ", ")
}

// joinMode returns the request's parsed hash-join strategy (Validate has
// already rejected unparseable values; a bad string here degrades to
// auto).
func (q Request) joinMode() engine.JoinMode {
	m, _ := engine.ParseJoinMode(q.JoinMode)
	return m
}

// Side is one traced execution inside a Result: the measured subject,
// its reference twin, or one sweep point.
type Side struct {
	// Label names the execution: "row", "vectorized", "unshared",
	// "shared", "parallel-N", "monolithic", "cohort-N".
	Label  string
	Cycles uint64
	Result sim.Result
	// Rows is DSS result rows; Txns is OLTP transactions committed.
	Rows int
	Txns int
	// Digest fingerprints the execution's logical output: the database
	// StateDigest for OLTP, RowsDigest of the result set for serial DSS,
	// a row-count digest for parallel DSS (float addition order varies
	// with morsel claiming, so value bits are not comparable).
	Digest uint64
	// Workers / Parts identify the sweep point where applicable.
	Workers int
	Parts   int
	// Fenced counts the cross-partition transactions run in isolation.
	Fenced int
	// Sched sums the scheduler counters over partitions; PerPart has them
	// per partition when there are several.
	Sched   oltp.Stats
	PerPart []oltp.Stats
	// Scans and Reuse are the shared scans' and the result cache's counters.
	Scans share.Stats
	Reuse share.CacheStats
	// Trace is the side's dual-clock span run when it was traced; its root
	// span covers [0, Cycles]. Run gathers them into Result.Traces.
	Trace *obs.Run
}

// Stalls is the wire/report-friendly cycle-accounting breakdown of one
// execution: aggregate core cycles by the paper's stall taxonomy, summed
// over active cores for the measured window.
type Stalls struct {
	Computation uint64 `json:"computation"`
	IStallL2    uint64 `json:"istall_l2"`
	IStallMem   uint64 `json:"istall_mem"`
	DStallL2    uint64 `json:"dstall_l2"`
	DStallMem   uint64 `json:"dstall_mem"`
	DStallCoh   uint64 `json:"dstall_coh"`
	Other       uint64 `json:"other"`
	Idle        uint64 `json:"idle"`
	// Busy is the non-idle total — the denominator of the paper's
	// execution-time breakdowns.
	Busy uint64 `json:"busy"`
}

// StallsOf flattens a simulator breakdown into the wire form.
func StallsOf(r sim.Result) Stalls {
	b := r.Breakdown
	return Stalls{
		Computation: b.Cycles[sim.KindComp],
		IStallL2:    b.Cycles[sim.KindIStallL2],
		IStallMem:   b.Cycles[sim.KindIStallMem],
		DStallL2:    b.Cycles[sim.KindDStallL2],
		DStallMem:   b.Cycles[sim.KindDStallMem],
		DStallCoh:   b.Cycles[sim.KindDStallCoh],
		Other:       b.Cycles[sim.KindOther],
		Idle:        b.Cycles[sim.KindIdle],
		Busy:        b.Busy(),
	}
}

// Stalls returns this side's cycle-accounting breakdown.
func (s Side) Stalls() Stalls { return StallsOf(s.Result) }

// IStallFrac is the fraction of busy cycles lost to instruction stalls.
func (s Side) IStallFrac() float64 {
	busy := s.Result.Breakdown.Busy()
	if busy == 0 {
		return 0
	}
	return float64(s.Result.Breakdown.IStalls()) / float64(busy)
}

// PerMcycle is work units (rows' queries or transactions) completed per
// million simulated cycles.
func (s Side) PerMcycle(units int) float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(units) * 1e6 / float64(s.Cycles)
}

// Result is one unified-API measurement: the subject side, its reference
// twin, and (for sweeping modes) every sweep point.
type Result struct {
	Mode Mode
	// Request echoes the fully-defaulted request that ran.
	Request Request
	// Baseline is the reference execution: row-at-a-time, unshared,
	// the first worker count, or the monolithic transaction path.
	Baseline Side
	// Main is the subject: vectorized, shared, the last worker count, or
	// the cohort side at the last partition count.
	Main Side
	// Sweep holds every sweep point for parallel-dss (worker counts) and
	// staged-oltp (partition counts); Main aliases the last entry.
	Sweep []Side
	// SpeedupX is Baseline cycles over Main cycles.
	SpeedupX float64
	// ScalingX is each sweep point's cycle speedup over Sweep[0].
	ScalingX []float64
	// L1IMissReductionX is the staged-oltp instruction-miss payoff:
	// monolithic L1I misses over cohort L1I misses.
	L1IMissReductionX float64
	// Digest is Main.Digest: the value the server's byte-identity
	// acceptance compares against batch runs.
	Digest uint64
	// Traces holds the dual-clock span run of every side, in side order,
	// when Request.Trace is set; executors without span plumbing (vec-dss,
	// parallel-dss) contribute the root span alone. Exportable as Chrome
	// trace-event JSON via obs.WriteChrome.
	Traces []obs.Run
	// Native holds the host-execution sweep when Request.NativeWorkers is
	// set: the interpreted 1-worker reference first, then one compiled
	// point per requested worker count (wall-clock, best of 50) — a
	// copying and a borrowing point per count under NativeZeroCopy. These
	// are distinct measurements, not repeats; the traced sides above are
	// each simulated once.
	Native []NativeRun
	// NativeRows / NativeRowsPerSec headline the best compiled native
	// point: base-table rows scanned and host throughput.
	NativeRows       int
	NativeRowsPerSec float64
}

// Run executes one unified request: it applies defaults, validates, runs
// the mode's paired measurement on identical chip geometry, and returns
// the typed result. Every side is simulated once.
//
// A side is self-paced when the host cannot influence what it simulates:
// it has one trace producer, or producers that never wait for one another,
// or producers that take every decision they share at a simulated instant,
// and the simulator waits for whichever it needs. Both vec-dss sides, every
// point of a parallel-dss sweep, the unshared side of shared-dss and the
// staged-oltp sides at one partition are self-paced; their sim.Result,
// cycles and digest are the same on every run, on any host, whatever runs
// beside them. The workers of a parallel-dss point share one decision, who
// claims which morsel, and each claim is a paced request: the worker asks
// through its trace (trace.Recorder.AtPace) and the claim is made when the
// simulator has brought the worker's thread to that point, in the order the
// simulation reaches the requests — by cycle in the measured window, cores
// in order within a cycle, and thread by thread (thread 0's whole prefix
// first) for the requests that fall inside the warm-up prefix, because that
// is the order sim.Chip.Warm consumes the threads in. A side is host-paced
// when its producers divide work among themselves in host time: cohort sides
// at parts > 1 (commit order, fences) are the only ones, and repeat their
// digest on every run but their cycles only to within a fraction of a
// percent. The shared side of shared-dss does not repeat at all — where a
// consumer attaches to the circular scan depends on how far the host has
// let the producers run ahead of the simulator — so its cycles are one draw
// from a spread of a few percent, not a minimum.
//
// Consecutive self-paced sides (and the shared side, which has nothing to
// lose) run two at a time, the second on a goroutine of its own, when the
// host has a second processor to run it on and the database the request
// runs against is already resident: a request is otherwise one thread of
// simulation after another while the other processors idle. A parallel-dss
// sweep so runs pairwise ({1, 4} is one pair). A host-paced side runs with
// nothing of its request beside it, and on one processor, or while the
// database or the TPC-C image still has to be built (both sides would wait
// for it, and the second would need arenas of its own meanwhile), every
// side runs in turn on the caller's goroutine. Nothing selects between the
// two placements but the host; the Result is assembled in side order either
// way, and an error is the first in side order.
//
// staged-oltp digests are checked byte-identical against the monolithic
// reference. A panic in a side, in the producer goroutine its simulation
// starts, or in anything that producer fans out (morsel workers, shared-dss
// clients, partition schedulers, staged consumers: every joined goroutine
// runs through par.Do) comes back as a *par.PanicError labelled with the
// side, and the process and the Runner's other requests go on. The share
// registry's own goroutines, which outlive a query, are the exception.
// ctx cancels between sides (a simulated run in flight is not interrupted).
func (r *Runner) Run(ctx context.Context, req Request) (Result, error) {
	req = req.WithDefaults()
	if err := req.Validate(); err != nil {
		return Result{}, err
	}
	sides, err := r.runSides(ctx, req.Mode, r.requestSides(req)...)
	if err != nil {
		return Result{}, err
	}
	res := Result{Mode: req.Mode, Request: req, Baseline: sides[0], Main: sides[len(sides)-1]}
	switch req.Mode {
	case ModeParallelDSS:
		res.Sweep = sides
	case ModeStagedOLTP:
		res.Sweep = sides[1:]
		for _, s := range res.Sweep {
			if s.Digest != res.Baseline.Digest {
				return Result{}, fmt.Errorf(
					"core: staged OLTP digest mismatch at parts=%d: %#x vs monolithic %#x (determinism contract violated)",
					s.Parts, s.Digest, res.Baseline.Digest)
			}
		}
		res.L1IMissReductionX = float64(res.Baseline.Result.Cache.L1IMisses) /
			float64(max(res.Main.Result.Cache.L1IMisses, 1))
	}
	for _, s := range res.Sweep {
		res.ScalingX = append(res.ScalingX, float64(res.Sweep[0].Cycles)/float64(max(s.Cycles, 1)))
	}
	for _, s := range sides {
		if s.Trace != nil {
			res.Traces = append(res.Traces, *s.Trace)
		}
	}
	res.Digest = res.Main.Digest
	if res.Main.Cycles > 0 {
		res.SpeedupX = float64(res.Baseline.Cycles) / float64(res.Main.Cycles)
	}
	if len(req.NativeWorkers) > 0 {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		native, err := r.RunNativeDSS(req.Query, req.NativeWorkers, req.Seed, req.NativeZeroCopy, req.joinMode())
		if err != nil {
			return Result{}, err
		}
		res.Native = native
		for _, n := range native {
			if !n.Interpreted && n.RowsPerSec > res.NativeRowsPerSec {
				res.NativeRows, res.NativeRowsPerSec = n.Rows, n.RowsPerSec
			}
		}
	}
	return res, nil
}

// requestSides returns the simulations of req's mode in side order: the
// reference first, the subject (or the sweep's last point) last. Each is a
// function of req and the one value its sides differ in.
func (r *Runner) requestSides(req Request) []side {
	var sides []side
	add := func(label string, hostPaced bool, run func() (Side, error)) {
		sides = append(sides, side{label: label, hostPaced: hostPaced, run: run})
	}
	switch req.Mode {
	case ModeVecDSS:
		for _, vectorized := range []bool{false, true} {
			add(vecLabel(vectorized), false, func() (Side, error) { return r.vecDSS(req, vectorized) })
		}
	case ModeSharedDSS:
		for _, shared := range []bool{false, true} {
			add(sharedLabel(shared), false, func() (Side, error) { return r.sharedDSS(req, shared) })
		}
	case ModeParallelDSS:
		for _, n := range req.WorkerCounts {
			add(parallelLabel(n), false, func() (Side, error) { return r.parallelDSS(req, n) })
		}
	case ModeStagedOLTP:
		add(stagedLabel(false, 1), false, func() (Side, error) { return r.stagedOLTP(req, false, 1) })
		for _, p := range req.PartCounts {
			add(stagedLabel(true, p), p > 1, func() (Side, error) { return r.stagedOLTP(req, true, p) })
		}
	}
	return sides
}

// RowsDigest fingerprints a result set: FNV-1a over each row's typed
// values in row order. Two executions that produce the same rows in the
// same order produce the same digest.
func RowsDigest(rows [][]engine.Value) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, row := range rows {
		for _, v := range row {
			buf[0] = byte(v.Kind)
			h.Write(buf[:1])
			switch v.Kind {
			case engine.TFloat:
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.F))
				h.Write(buf[:])
			case engine.TChar:
				h.Write([]byte(v.S))
			default:
				binary.LittleEndian.PutUint64(buf[:], uint64(v.I))
				h.Write(buf[:])
			}
		}
		buf[0] = 0xfe // row separator
		h.Write(buf[:1])
	}
	return h.Sum64()
}

// countDigest fingerprints a bare row count (parallel runs, whose float
// addition order is not reproducible bit-for-bit).
func countDigest(rows int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(rows))
	h.Write(buf[:])
	return h.Sum64()
}
