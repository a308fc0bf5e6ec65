package server

import (
	"io"

	"repro/internal/core"
	"repro/internal/obs"
)

// Histogram bucket ladders. Request latencies are host seconds (an
// admitted request runs a whole simulation, so the ladder reaches
// minutes); run cycles are simulated; the scheduler ladders are small
// integer counts.
var (
	secondsBuckets = obs.LogBuckets(0.001, 2, 20) // 1ms .. ~8.7m
	cyclesBuckets  = obs.LogBuckets(1e4, 4, 14)   // 10k .. ~671M cycles
	stepsBuckets   = obs.LogBuckets(1, 2, 12)     // 1 .. 2048
)

// Metrics is the server's metric set, backed by one obs.Registry and
// exposed on GET /metrics in the Prometheus text exposition format. The
// executor counters (parks, wounds, rotations, cache hits) aggregate
// the scheduler and sharing statistics of every request the server has
// completed — the live view of the internals the batch drivers print.
type Metrics struct {
	Registry *obs.Registry

	Requests         *obs.Counter
	Errors           *obs.Counter
	Panics           *obs.Counter
	AdmissionRejects *obs.Counter
	DrainRejects     *obs.Counter
	InFlight         *obs.Gauge
	JobsCreated      *obs.Counter

	// Cohort-scheduler counters summed over completed staged-oltp runs.
	Parks         *obs.Counter
	Wounds        *obs.Counter
	Deadlocks     *obs.Counter
	StageSwitches *obs.Counter
	FencedTxns    *obs.Counter
	TxnsCommitted *obs.Counter

	// Work-sharing counters summed over completed shared-dss runs.
	Rotations       *obs.Counter
	Attaches        *obs.Counter
	ResultCacheHits *obs.Counter
	ResultCacheMiss *obs.Counter

	// RequestSeconds is end-to-end host latency of admitted requests by
	// mode; QueueWait is the host delay between job creation and
	// execution start (async jobs queue here); RunCycles is the subject
	// side's simulated length per completed execution, by mode.
	RequestSeconds *obs.HistogramVec
	QueueWait      *obs.Histogram
	RunCycles      *obs.HistogramVec

	// Sched receives scheduler-internals observations from inside every
	// staged-OLTP run (plumbed down through core.Runner.Sched).
	Sched obs.SchedMetrics

	// Join receives hash-join build observations — chain-length
	// distribution, partition fan-out by join mode — from inside every
	// traced DSS run (plumbed down through core.Runner.Join).
	Join obs.JoinMetrics

	// Forks counts and times the private TPC-C databases forked from the
	// runner's resident image, one per staged-OLTP side (plumbed down
	// through core.Runner.Forks).
	Forks obs.ForkMetrics

	// Loads times the runner's lazy database loads (plumbed down through
	// core.Runner.Loads): the part of a first request that is not the
	// request.
	Loads obs.LoadMetrics

	// Sides counts every simulated side by whether it ran beside its twin
	// or alone (plumbed down through core.Runner.Sides): the share of
	// overlapped sides is how much of the load found a second processor.
	Sides obs.SideMetrics
}

// NewMetrics builds the server metric set on a fresh registry.
func NewMetrics() *Metrics {
	r := obs.NewRegistry()
	return &Metrics{
		Registry:         r,
		Requests:         r.Counter("dbserver_requests_total", "Admitted execution requests."),
		Errors:           r.Counter("dbserver_errors_total", "Requests that failed validation or execution."),
		Panics:           r.Counter("dbserver_panics_total", "Requests that failed because one of their sides panicked (also counted as errors)."),
		AdmissionRejects: r.Counter("dbserver_admission_rejects_total", "Requests refused by per-tenant or global caps."),
		DrainRejects:     r.Counter("dbserver_drain_rejects_total", "Requests refused because the server is draining."),
		InFlight:         r.Gauge("dbserver_inflight_sessions", "Admitted sessions currently executing."),
		JobsCreated:      r.Counter("dbserver_jobs_created_total", "Jobs created (sync and async)."),

		Parks:         r.Counter("dbserver_sched_parks_total", "Cohort-scheduler lock parks across completed runs."),
		Wounds:        r.Counter("dbserver_sched_wounds_total", "Cohort-scheduler deadlock wounds across completed runs."),
		Deadlocks:     r.Counter("dbserver_sched_deadlocks_total", "Deadlock retries across completed runs."),
		StageSwitches: r.Counter("dbserver_sched_stage_switches_total", "Cohort stage switches across completed runs."),
		FencedTxns:    r.Counter("dbserver_fenced_txns_total", "Cross-partition transactions run fenced."),
		TxnsCommitted: r.Counter("dbserver_txns_committed_total", "Transactions committed by staged-oltp runs."),

		Rotations:       r.Counter("dbserver_scan_rotations_total", "Circular shared-scan rotations across completed runs."),
		Attaches:        r.Counter("dbserver_scan_attaches_total", "Consumers attached to shared scans across completed runs."),
		ResultCacheHits: r.Counter("dbserver_result_cache_hits_total", "Result-reuse cache hits across completed runs."),
		ResultCacheMiss: r.Counter("dbserver_result_cache_misses_total", "Result-reuse cache misses across completed runs."),

		RequestSeconds: r.HistogramVec("dbserver_request_seconds", "End-to-end host latency of admitted requests.", secondsBuckets, "mode"),
		QueueWait:      r.Histogram("dbserver_queue_wait_seconds", "Host delay between job creation and execution start.", secondsBuckets),
		RunCycles:      r.HistogramVec("dbserver_run_cycles", "Simulated cycles of each completed subject execution.", cyclesBuckets, "mode"),
		Sched: obs.SchedMetrics{
			QuantumSteps: r.Histogram("dbserver_sched_quantum_steps", "Continuation steps executed per scheduling quantum.", stepsBuckets),
			ParkQuanta:   r.Histogram("dbserver_sched_park_quanta", "Quanta a transaction stayed parked before resuming.", stepsBuckets),
		},
		Join:  obs.NewJoinMetrics(r),
		Forks: obs.NewForkMetrics(r),
		Loads: obs.NewLoadMetrics(r),
		Sides: obs.NewSideMetrics(r),
	}
}

// Observe folds one completed measurement into the counters. Every
// subject side is folded the same way regardless of mode — sides that
// never touched a subsystem contribute zeros — so a new mode can't be
// silently dropped by a forgotten switch arm. Subjects are the sweep
// points when the mode sweeps, otherwise Main (which aliases the last
// sweep entry, so folding both would double-count). Baselines are the
// reference twin and contribute nothing.
func (m *Metrics) Observe(res core.Result) {
	subjects := res.Sweep
	if len(subjects) == 0 {
		subjects = []core.Side{res.Main}
	}
	mode := string(res.Mode)
	for _, s := range subjects {
		m.Parks.Add(uint64(s.Sched.Parks))
		m.Wounds.Add(uint64(s.Sched.Wounds))
		m.Deadlocks.Add(uint64(s.Sched.Deadlocks))
		m.StageSwitches.Add(uint64(s.Sched.StageSwitches))
		m.FencedTxns.Add(uint64(s.Fenced))
		m.TxnsCommitted.Add(uint64(s.Txns))

		m.Rotations.Add(s.Scans.Rotations)
		m.Attaches.Add(s.Scans.Attaches)
		m.ResultCacheHits.Add(s.Reuse.Hits)
		m.ResultCacheMiss.Add(s.Reuse.Misses)

		m.RunCycles.With(mode).Observe(float64(s.Cycles))
	}
}

// WritePrometheus renders every family in the text exposition format.
func (m *Metrics) WritePrometheus(w io.Writer) {
	m.Registry.WritePrometheus(w)
}
