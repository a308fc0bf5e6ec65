// Package api holds the wire types of the execution server: the JSON
// bodies of POST /v1/query, POST /v1/txn, and GET /v1/jobs/{id}, plus
// the conversions to and from the core request API. Digests travel as
// hex strings — they are uint64 fingerprints, and JSON numbers lose
// bits past 2^53.
package api

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
)

// QueryRequest is the body of POST /v1/query: one DSS measurement on
// the simulated chip. Zero-valued fields take the mode defaults that
// core.Request.WithDefaults resolves.
type QueryRequest struct {
	// Mode is vec-dss, shared-dss, or parallel-dss (default vec-dss).
	Mode string `json:"mode,omitempty"`
	// Query is the DSS analog: 1, 6, or 13 (shared-dss also accepts 0
	// for the Q1/Q6/Q13 mix).
	Query int `json:"query,omitempty"`
	// Clients is the shared-dss consumer count.
	Clients int `json:"clients,omitempty"`
	// Workers is the parallel-dss target worker count.
	Workers int `json:"workers,omitempty"`
	// WorkerCounts sweeps parallel-dss worker counts on pinned geometry.
	WorkerCounts []int `json:"worker_counts,omitempty"`
	// NativeWorkers additionally sweeps the trace-free native fast path
	// (compiled predicates + selection vectors, morsel-parallel) at these
	// worker counts; host wall-clock numbers ride back on the result's
	// native section.
	NativeWorkers []int `json:"native_workers,omitempty"`
	// JoinMode pins the hash-join strategy of joining plans (Q13):
	// "chained", "partitioned", "prefetch", or ""/"auto" for the
	// build-size policy.
	JoinMode string `json:"join_mode,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	// Async makes the server return 202 with a queued Job instead of
	// blocking until the measurement completes.
	Async bool `json:"async,omitempty"`
	// Trace collects dual-clock spans, served afterwards as Chrome
	// trace-event JSON on GET /v1/jobs/{id}/trace.
	Trace bool `json:"trace,omitempty"`
}

// ToCore maps the wire request onto a core.Request.
func (q QueryRequest) ToCore() (core.Request, error) {
	ms := q.Mode
	if ms == "" {
		ms = string(core.ModeVecDSS)
	}
	mode, err := core.ParseMode(ms)
	if err != nil {
		return core.Request{}, err
	}
	if mode == core.ModeStagedOLTP {
		return core.Request{}, &core.ValidationError{
			Field: "mode", Reason: "staged-oltp is a transaction batch; POST it to /v1/txn"}
	}
	return core.Request{
		Mode: mode, Query: q.Query, Clients: q.Clients,
		Workers: q.Workers, WorkerCounts: q.WorkerCounts,
		NativeWorkers: q.NativeWorkers, JoinMode: q.JoinMode,
		Seed: q.Seed, Trace: q.Trace,
	}, nil
}

// TxnRequest is the body of POST /v1/txn: one deterministic staged-OLTP
// transaction batch, cohort-scheduled against its monolithic reference
// twin (digests checked byte-identical server-side).
type TxnRequest struct {
	// Clients is logical client streams; Txns is transactions per client.
	Clients int `json:"clients,omitempty"`
	Txns    int `json:"txns,omitempty"`
	// Cohort is the in-flight window of the cohort scheduler.
	Cohort int `json:"cohort,omitempty"`
	// Parts partitions the cohort side by home warehouse; PartCounts
	// sweeps several partition counts against one monolithic reference.
	Parts      int   `json:"parts,omitempty"`
	PartCounts []int `json:"part_counts,omitempty"`
	// RemotePct is the percent chance of a cross-warehouse draw.
	RemotePct int   `json:"remote_pct,omitempty"`
	Seed      int64 `json:"seed,omitempty"`
	Async     bool  `json:"async,omitempty"`
	// Trace collects dual-clock spans, served afterwards as Chrome
	// trace-event JSON on GET /v1/jobs/{id}/trace.
	Trace bool `json:"trace,omitempty"`
}

// ToCore maps the wire request onto a core.Request.
func (t TxnRequest) ToCore() (core.Request, error) {
	return core.Request{
		Mode: core.ModeStagedOLTP, Clients: t.Clients, Txns: t.Txns,
		Cohort: t.Cohort, Parts: t.Parts, PartCounts: t.PartCounts,
		RemotePct: t.RemotePct, Seed: t.Seed, Trace: t.Trace,
	}, nil
}

// Side is one traced execution inside a Result.
type Side struct {
	Label        string  `json:"label"`
	Cycles       uint64  `json:"cycles"`
	Instructions uint64  `json:"instructions"`
	L1IMisses    uint64  `json:"l1i_misses"`
	IStallFrac   float64 `json:"istall_frac"`
	Rows         int     `json:"rows,omitempty"`
	Txns         int     `json:"txns,omitempty"`
	// Digest is the execution's logical-output fingerprint in hex.
	Digest  string `json:"digest"`
	Workers int    `json:"workers,omitempty"`
	Parts   int    `json:"parts,omitempty"`
	Fenced  int    `json:"fenced,omitempty"`
	// Cohort-scheduler counters (staged-oltp sides).
	Parks     int `json:"parks,omitempty"`
	Wounds    int `json:"wounds,omitempty"`
	Deadlocks int `json:"deadlocks,omitempty"`
	// Work-sharing counters (shared-dss sides).
	Attaches        uint64 `json:"attaches,omitempty"`
	Rotations       uint64 `json:"rotations,omitempty"`
	ResultCacheHits uint64 `json:"result_cache_hits,omitempty"`
	ResultCacheMiss uint64 `json:"result_cache_misses,omitempty"`
	// Stalls is the cycle-accounting breakdown of this execution.
	Stalls core.Stalls `json:"stalls"`
}

// NativeRun is one native fast-path measurement on the wire: query
// Query at Workers host workers, wall-clock timed (best of 50; median
// and interquartile range record the spread). Every point's digest is
// the interpreted reference's: the interpreted, compiled and
// multi-worker points return the same rows byte for byte.
type NativeRun struct {
	Query       int     `json:"query"`
	Workers     int     `json:"workers"`
	Interpreted bool    `json:"interpreted,omitempty"`
	Rows        int     `json:"rows_scanned"`
	Nanos       int64   `json:"nanos"`
	MedianNanos int64   `json:"median_nanos"`
	IQRNanos    int64   `json:"iqr_nanos"`
	RowsPerSec  float64 `json:"rows_per_sec"`
	Bytes       int     `json:"bytes_scanned"`
	GBPerSec    float64 `json:"gb_per_sec"`
	ResultRows  int     `json:"result_rows"`
	Digest      string  `json:"digest"`
}

// Result is the wire form of core.Result.
type Result struct {
	Mode              string    `json:"mode"`
	Baseline          Side      `json:"baseline"`
	Main              Side      `json:"main"`
	Sweep             []Side    `json:"sweep,omitempty"`
	SpeedupX          float64   `json:"speedup_x"`
	ScalingX          []float64 `json:"scaling_x,omitempty"`
	L1IMissReductionX float64   `json:"l1i_miss_reduction_x,omitempty"`
	// Digest echoes Main's fingerprint: the value clients compare against
	// batch-mode core.Runner.Run results for byte-identity.
	Digest string `json:"digest"`
	// Native is the fast-path sweep when the request asked for one, led
	// by the interpreted reference; NativeRowsPerSec is the best compiled
	// point's throughput (the headline host number).
	Native           []NativeRun `json:"native,omitempty"`
	NativeRows       int         `json:"native_rows,omitempty"`
	NativeRowsPerSec float64     `json:"native_rows_per_sec,omitempty"`
	// TraceSpans counts collected spans for traced runs; the spans
	// themselves are served on GET /v1/jobs/{id}/trace.
	TraceSpans int `json:"trace_spans,omitempty"`
}

// Job is one submitted execution and its lifecycle.
type Job struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Mode   string `json:"mode"`
	// Status is queued, running, done, or error.
	Status string  `json:"status"`
	Error  string  `json:"error,omitempty"`
	Result *Result `json:"result,omitempty"`
}

// ErrorBody is every non-2xx JSON payload.
type ErrorBody struct {
	Error string `json:"error"`
	// Field names the offending request field for validation errors.
	Field string `json:"field,omitempty"`
}

// Digest renders a uint64 fingerprint in the wire form.
func Digest(d uint64) string { return fmt.Sprintf("%#x", d) }

// ParseDigest reverses Digest.
func ParseDigest(s string) (uint64, error) {
	return strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, 64)
}

// FromCore flattens a core.Result into its wire form.
func FromCore(res core.Result) Result {
	out := Result{
		Mode:              string(res.Mode),
		Baseline:          sideFromCore(res.Baseline),
		Main:              sideFromCore(res.Main),
		SpeedupX:          res.SpeedupX,
		ScalingX:          res.ScalingX,
		L1IMissReductionX: res.L1IMissReductionX,
		Digest:            Digest(res.Digest),
	}
	for _, s := range res.Sweep {
		out.Sweep = append(out.Sweep, sideFromCore(s))
	}
	for _, n := range res.Native {
		out.Native = append(out.Native, NativeRun{
			Query: n.Query, Workers: n.Workers,
			Interpreted: n.Interpreted,
			Rows:        n.Rows, Nanos: n.Nanos,
			MedianNanos: n.MedianNanos, IQRNanos: n.IQRNanos,
			RowsPerSec: n.RowsPerSec,
			Bytes:      n.BytesScanned, GBPerSec: n.GBPerSec,
			ResultRows: n.ResultRows, Digest: Digest(n.Digest),
		})
	}
	out.NativeRows = res.NativeRows
	out.NativeRowsPerSec = res.NativeRowsPerSec
	for _, t := range res.Traces {
		out.TraceSpans += len(t.Spans)
	}
	return out
}

func sideFromCore(s core.Side) Side {
	return Side{
		Label: s.Label, Cycles: s.Cycles,
		Instructions: s.Result.Instructions,
		L1IMisses:    s.Result.Cache.L1IMisses,
		IStallFrac:   s.IStallFrac(),
		Rows:         s.Rows, Txns: s.Txns,
		Digest:  Digest(s.Digest),
		Workers: s.Workers, Parts: s.Parts, Fenced: s.Fenced,
		Parks: s.Sched.Parks, Wounds: s.Sched.Wounds, Deadlocks: s.Sched.Deadlocks,
		Attaches: s.Scans.Attaches, Rotations: s.Scans.Rotations,
		ResultCacheHits: s.Reuse.Hits, ResultCacheMiss: s.Reuse.Misses,
		Stalls: s.Stalls(),
	}
}
