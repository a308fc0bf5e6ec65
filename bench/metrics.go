package main

import "strings"

// runSeconds is the committed measured window of every workload, equal
// to BENCHMARK.json's run_seconds. The issue sized 60 s / 40 s windows;
// the acceptance driver's cap (92 runs inside 3420 s, set-up included)
// shrinks them to one common window. Results measured with any other
// window are marked not comparable.
const runSeconds = 26

// setupReps is how many times a run performs a workload's set-up; the
// median is reported as setup_s, so one page-fault storm or GC cycle
// does not decide the number.
const setupReps = 5

// metricDef names one end-to-end metric of BENCHMARK.json: reported by
// every workload, never zero, with the share of the parent's median by
// which it may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// endToEnd is the driver-facing metric set, in BENCHMARK.json order.
//
// The acceptance contract wants every workload to report every
// end-to-end metric, so the issue's thirteen per-kind names
// (q6_p50_ms, txn_p90_ms, …) cannot be listed there: no kind occurs on
// all four workloads. They are still measured, printed and written to
// the result file (see kindMetricBound); the three below are the
// workload-independent forms of the same observations.
var endToEnd = []metricDef{
	// One pass over the workload's operation kinds as a client sees it:
	// the sum over kinds of that kind's median latency.
	{Name: "round_p50_ms", Unit: "ms", Better: "lower", Bound: maxBound},
	// Completed operations of all kinds per second of measured window.
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: maxBound},
	// Median over setupReps of: database builds, listener, goldens,
	// warm-up — everything before the first timed operation.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: maxBound},
}

// maxBound is the widest bound the acceptance contract allows.
const maxBound = 0.25

// kindMetricFloor is the bound the issue set for its per-kind metrics
// (result file and -compare only): 8 % for a median on the single-client
// workloads, 12 % under mixed_concurrent's contention, 15 % for a p90.
func kindMetricFloor(workload, metric string) float64 {
	switch {
	case strings.HasSuffix(metric, "_p90_ms"):
		return 0.15
	case workload == "mixed_concurrent":
		return 0.12
	}
	return 0.08
}

// kindMetricBound is a per-kind metric's regression bound: any increase
// at all for fail_ratio; otherwise the issue's floor, raised to twice the
// recorded same-code spread where the sizing host cannot resolve the
// floor, but never past maxBound — a metric noisier than that is
// reported unresolved on this host, not given a bound that forbids
// nothing.
func kindMetricBound(workload, metric string) float64 {
	if metric == "fail_ratio" {
		return 0
	}
	return max(kindMetricFloor(workload, metric), min(2*spreadOf(workload, metric), maxBound))
}

// recordedSpread is the same-code run-to-run spread (interquartile
// distance over the median of ten runs with ten seeds, the wider of two
// such sets an hour apart, on the 2-core sizing host) observed when the
// bounds were set, per workload and metric. -compare reports a pairing
// whose recorded spread exceeds its bound as unresolved instead of
// unchanged. The host is a shared micro-VM whose speed drifts by tens of
// per cent over minutes (see README.md); these are its numbers, not the
// program's.
var recordedSpread = map[string]map[string]float64{
	"dss_traced": {
		"round_p50_ms":  0.182,
		"ops_per_s":     0.131,
		"setup_s":       0.078,
		"q6_p50_ms":     0.065,
		"q1_p50_ms":     0.143,
		"q13_p50_ms":    0.617,
		"par_p50_ms":    0.103,
		"shared_p50_ms": 0.081,
	},
	"dss_native": {
		"round_p50_ms": 0.153,
		"ops_per_s":    0.195,
		"setup_s":      0.131,
		"q6_p50_ms":    0.255,
		"q6_p90_ms":    0.299,
		"q1_p50_ms":    0.125,
		"q1_p90_ms":    0.253,
		"q13_p50_ms":   0.163,
		"q13_p90_ms":   0.334,
	},
	"oltp_staged": {
		"round_p50_ms": 0.125,
		"ops_per_s":    0.121,
		"setup_s":      0.253,
		"txn_p50_ms":   0.125,
		"txn_p90_ms":   0.171,
	},
	"mixed_concurrent": {
		"round_p50_ms": 0.044,
		"ops_per_s":    0.067,
		"setup_s":      0.095,
		"q6_p50_ms":    0.049,
		"q13_p50_ms":   0.063,
		"txn_p50_ms":   0.056,
		"txn_p90_ms":   0.068,
	},
}

func spreadOf(workload, metric string) float64 {
	return recordedSpread[workload][metric]
}

func endToEndDef(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
