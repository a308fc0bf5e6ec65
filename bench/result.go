package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// resultSchema versions the file written to bench/out/result.json. The
// layout is frozen: a later change adds fields, never renames or
// repurposes one, so -compare keeps reading old files.
const resultSchema = 1

// Result is one benchmark run: every workload's end-to-end metrics.
type Result struct {
	Schema    int     `json:"schema"`
	Seed      int64   `json:"seed"`
	GitCommit string  `json:"git_commit"`
	GoVersion string  `json:"go_version"`
	Host      Host    `json:"host"`
	WindowS   float64 `json:"window_s"`
	// Comparable is false when the run used a non-default window; such
	// results are refused by -compare.
	Comparable bool             `json:"comparable"`
	Workloads  []WorkloadResult `json:"workloads"`
}

// Host describes the machine a result was measured on.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// WorkloadResult is one workload's measured window.
type WorkloadResult struct {
	Name      string       `json:"name"`
	Why       string       `json:"why"`
	Clients   int          `json:"clients"`
	Correct   bool         `json:"correct"`
	Attempted int          `json:"attempted"`
	Succeeded int          `json:"succeeded"`
	Failed    int          `json:"failed"`
	ElapsedS  float64      `json:"elapsed_s"`
	Kinds     []KindResult `json:"kinds"`
	Metrics   []Metric     `json:"metrics"`
	// Errors holds the first few failure messages, for the reader.
	Errors []string `json:"errors,omitempty"`
	// Host-side cost of the window (context for tails, never gated).
	// Peak RSS is the process's high-water mark, so in an all-workload
	// run it includes the workloads measured before this one.
	PeakRSSMB    float64 `json:"peak_rss_mb"`
	GCPauseMS    float64 `json:"gc_pause_ms"`
	AllocMBPerOp float64 `json:"alloc_mb_per_op"`
}

// KindResult counts one operation kind's outcomes.
type KindResult struct {
	Kind      string `json:"kind"`
	Attempted int    `json:"attempted"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
}

// Metric is one named measurement with everything -compare needs.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Value  float64 `json:"value"`
	// N is the sample count behind Value; Q1/Q3 their quartiles (absent
	// for a rate, which has one value per window).
	N  int     `json:"n"`
	Q1 float64 `json:"q1,omitempty"`
	Q3 float64 `json:"q3,omitempty"`
	// Bound is the regression bound; Spread the same-code run-to-run
	// spread recorded when the bound was set.
	Bound  float64 `json:"bound"`
	Spread float64 `json:"spread"`
	// Driver marks the metrics BENCHMARK.json lists (reported by every
	// workload); the others are the per-kind forms.
	Driver bool `json:"driver"`
}

func (w WorkloadResult) metric(name string) (Metric, bool) {
	for _, m := range w.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

func (r Result) workload(name string) (WorkloadResult, bool) {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return WorkloadResult{}, false
}

// sample is one timed operation of the measured window.
type sample struct {
	kind int
	ms   float64
	err  error
}

// summarize turns a window's samples into the workload's metrics: the
// three end-to-end metrics every workload reports, then the per-kind
// medians (and a p90 where n >= 100 supports one) and fail_ratio. A
// failed operation counts as attempted and contributes no latency.
func summarize(name string, kinds []string, samples []sample, elapsed time.Duration, setups []float64) WorkloadResult {
	w := WorkloadResult{Name: name, ElapsedS: elapsed.Seconds(), Correct: true}
	lat := make([][]float64, len(kinds))
	w.Kinds = make([]KindResult, len(kinds))
	for i, k := range kinds {
		w.Kinds[i].Kind = k
	}
	for _, s := range samples {
		k := &w.Kinds[s.kind]
		k.Attempted++
		w.Attempted++
		if s.err != nil {
			k.Failed++
			w.Failed++
			if len(w.Errors) < 5 {
				w.Errors = append(w.Errors, fmt.Sprintf("%s: %v", kinds[s.kind], s.err))
			}
			continue
		}
		k.Succeeded++
		w.Succeeded++
		lat[s.kind] = append(lat[s.kind], s.ms)
	}
	w.Correct = w.Failed == 0 && w.Attempted > 0

	add := func(name, unit, better string, value float64, vals []float64, n int) {
		m := Metric{Name: name, Unit: unit, Better: better, Value: value, N: n}
		if len(vals) > 1 {
			m.Q1, m.Q3 = quartiles(vals)
		}
		if d, ok := endToEndDef(name); ok {
			m.Bound, m.Driver = d.Bound, true
		} else {
			m.Bound = kindMetricBound(w.Name, name)
		}
		m.Spread = spreadOf(w.Name, name)
		w.Metrics = append(w.Metrics, m)
	}

	var round float64
	minN := -1
	for i := range kinds {
		round += median(lat[i])
		if minN < 0 || len(lat[i]) < minN {
			minN = len(lat[i])
		}
	}
	add("round_p50_ms", "ms", "lower", round, nil, max(minN, 0))
	var rate float64
	if elapsed > 0 {
		rate = float64(w.Succeeded) / elapsed.Seconds()
	}
	add("ops_per_s", "1/s", "higher", rate, nil, w.Succeeded)
	add("setup_s", "s", "lower", median(setups), setups, len(setups))

	var failRatio float64
	if w.Attempted > 0 {
		failRatio = float64(w.Failed) / float64(w.Attempted)
	}
	add("fail_ratio", "ratio", "lower", failRatio, nil, w.Attempted)
	for i, k := range kinds {
		if len(lat[i]) == 0 {
			continue
		}
		add(k+"_p50_ms", "ms", "lower", median(lat[i]), lat[i], len(lat[i]))
		if percentileAllowed(90, len(lat[i])) {
			add(k+"_p90_ms", "ms", "lower", percentile(lat[i], 90), lat[i], len(lat[i]))
		}
	}
	return w
}

// print writes the human table: every metric by name with unit, n,
// quartiles and bound.
func (r Result) print(out io.Writer) {
	fmt.Fprintf(out, "seed %d  window %.0fs  commit %s  %s  nproc %d  comparable %v\n",
		r.Seed, r.WindowS, r.GitCommit, r.GoVersion, r.Host.NProc, r.Comparable)
	for _, w := range r.Workloads {
		fmt.Fprintf(out, "\n%s  clients=%d  attempted=%d failed=%d  elapsed=%.1fs  rss=%.0fMB gc=%.1fms alloc=%.1fMB/op\n",
			w.Name, w.Clients, w.Attempted, w.Failed, w.ElapsedS, w.PeakRSSMB, w.GCPauseMS, w.AllocMBPerOp)
		fmt.Fprintf(out, "  %-16s %12s %-6s %6s %12s %12s %7s %7s\n", "metric", "value", "unit", "n", "q1", "q3", "bound", "spread")
		for _, m := range w.Metrics {
			q1, q3 := "-", "-"
			if m.Q1 != 0 || m.Q3 != 0 {
				q1, q3 = fmt.Sprintf("%.4f", m.Q1), fmt.Sprintf("%.4f", m.Q3)
			}
			fmt.Fprintf(out, "  %-16s %12.4f %-6s %6d %12s %12s %6.1f%% %6.1f%%\n",
				m.Name, m.Value, m.Unit, m.N, q1, q3, m.Bound*100, m.Spread*100)
		}
		for _, e := range w.Errors {
			fmt.Fprintf(out, "  FAILED %s\n", e)
		}
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (Result, error) {
	var r Result
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultSchema {
		return r, fmt.Errorf("%s: result schema %d (this tool reads %d)", path, r.Schema, resultSchema)
	}
	return r, nil
}

func newResult(seed int64, window time.Duration) Result {
	return Result{
		Schema: resultSchema, Seed: seed,
		GitCommit: gitCommit(), GoVersion: runtime.Version(),
		Host: Host{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		},
		WindowS:    window.Seconds(),
		Comparable: window == runSeconds*time.Second,
	}
}

// gitCommit names the measured tree; a checkout that is not a git
// repository (the acceptance driver's) reports "unknown".
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
