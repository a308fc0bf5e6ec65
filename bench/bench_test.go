package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// These tests cover the benchmark's own arithmetic. None executes a
// workload, so the package stays a sub-second part of tier-1.

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want bool
	}{
		{90, 99, false}, {90, 100, true},
		{99, 999, false}, {99, 1000, true},
		{99.9, 9999, false}, {99.9, 10000, true},
	} {
		if got := percentileAllowed(c.p, c.n); got != c.want {
			t.Errorf("percentileAllowed(%v, %d) = %v, want %v", c.p, c.n, got, c.want)
		}
	}
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if got := percentile(vals, 90); got != 90 {
		t.Errorf("nearest-rank p90 of 1..100 = %v, want 90", got)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// Expected values are Python's statistics.quantiles(v, n=4).
	for _, c := range []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 4.5},
		{[]float64{1, 3}, 0.5, 3.5},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.vals)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.vals, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimeOnHandBuiltLadder(t *testing.T) {
	// HTTP 100 ms over Runner.Run 90 ms over two row sides of 30 ms and
	// two vec sides of 10 ms, each side over its trace production.
	self := rungSelf([]rung{
		{name: "http", ms: 100, below: []string{"run"}},
		{name: "run", ms: 90, below: []string{"row", "row", "vec", "vec"}},
		{name: "row", ms: 30, below: []string{"produce.row"}},
		{name: "vec", ms: 10, below: []string{"produce.vec"}},
		{name: "produce.row", ms: 2},
		{name: "produce.vec", ms: 1},
	})
	for name, want := range map[string]float64{"http": 10, "run": 10, "row": 28, "vec": 9, "produce.row": 2, "produce.vec": 1} {
		if self[name] != want {
			t.Errorf("self[%s] = %v, want %v", name, self[name], want)
		}
	}

}

func TestMismatchIsAFailedOperation(t *testing.T) {
	golden := uint64(0xabc)
	base := observed{digest: golden, baseDigest: golden, rows: 4, baseCycles: 100, mainCycles: 50}
	contract := expect{digest: &golden, rows: 4, sidesEqual: true, cyclesRepeat: true}

	for name, mutate := range map[string]func(*observed){
		"wrong digest":       func(o *observed) { o.digest, o.baseDigest = 1, 1 },
		"wrong rows":         func(o *observed) { o.rows = 5 },
		"sides differ":       func(o *observed) { o.baseDigest = 2 },
		"main cycles drift":  func(o *observed) { o.mainCycles++ },
		"base cycles drift":  func(o *observed) { o.baseCycles-- },
		"nothing (control)":  func(o *observed) {},
		"nothing (repeated)": func(o *observed) {},
	} {
		e := contract
		if err := e.check(base); err != nil {
			t.Fatalf("%s: first observation rejected: %v", name, err)
		}
		o := base
		mutate(&o)
		err := e.check(o)
		if wantErr := !strings.HasPrefix(name, "nothing"); (err != nil) != wantErr {
			t.Errorf("%s: check error = %v, want error %v", name, err, wantErr)
		}
	}

	// Without a golden the first answer is pinned and must repeat; a
	// shared-dss main digest alone is allowed to vary.
	e := expect{rows: -1}
	if err := e.check(observed{digest: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.check(observed{digest: 2}); err == nil {
		t.Error("an unpinned digest changed between visits and passed")
	}
	e = expect{rows: -1, mainDigestVaries: true}
	if err := e.check(observed{digest: 1, baseDigest: 9}); err != nil {
		t.Fatal(err)
	}
	if err := e.check(observed{digest: 2, baseDigest: 9}); err != nil {
		t.Errorf("shared main digest variation rejected: %v", err)
	}
	if err := e.check(observed{digest: 2, baseDigest: 8}); err == nil {
		t.Error("shared baseline digest changed and passed")
	}

	// Through op.run and summarize: the failure is counted against the
	// attempts, contributes no latency, and fails the workload.
	answers := []observed{base, base, {digest: 1, baseDigest: 1, rows: 4, baseCycles: 100, mainCycles: 50}}
	calls := 0
	o := newOp(0, []int64{11}, contract, func(int64) (observed, error) {
		calls++
		return answers[calls-1], nil
	})
	samples := []sample{o.run(), o.run(), o.run()}
	broken := newOp(0, []int64{11}, contract, func(int64) (observed, error) { return observed{}, errors.New("status 500") })
	samples = append(samples, broken.run())
	w := summarize("dss_traced", []string{"q6"}, samples, time.Second, []float64{0.5})
	if w.Attempted != 4 || w.Failed != 2 || w.Succeeded != 2 || w.Correct {
		t.Fatalf("attempted/failed/succeeded/correct = %d/%d/%d/%v, want 4/2/2/false", w.Attempted, w.Failed, w.Succeeded, w.Correct)
	}
	if m, _ := w.metric("fail_ratio"); m.Value != 0.5 {
		t.Errorf("fail_ratio = %v, want 0.5", m.Value)
	}
	if m, _ := w.metric("q6_p50_ms"); m.N != 2 {
		t.Errorf("q6_p50_ms n = %d, want 2 (failed operations have no latency)", m.N)
	}
}

func TestSummarizeMetrics(t *testing.T) {
	var samples []sample
	for i := 0; i < 100; i++ {
		samples = append(samples, sample{kind: 0, ms: float64(i + 1)}, sample{kind: 1, ms: 10})
	}
	samples = samples[:len(samples)-1] // kind 1 has 99 samples
	w := summarize("dss_native", []string{"q6", "q1"}, samples, 10*time.Second, []float64{0.3, 0.1, 0.2})
	want := map[string]float64{
		"round_p50_ms": 50.5 + 10, "ops_per_s": 19.9, "setup_s": 0.2, "fail_ratio": 0,
		"q6_p50_ms": 50.5, "q6_p90_ms": 90, "q1_p50_ms": 10,
	}
	for name, v := range want {
		m, ok := w.metric(name)
		if !ok || math.Abs(m.Value-v) > 1e-9 {
			t.Errorf("%s = %v (present %v), want %v", name, m.Value, ok, v)
		}
	}
	if _, ok := w.metric("q1_p90_ms"); ok {
		t.Error("a p90 was reported from 99 samples")
	}
	for _, d := range endToEnd {
		m, ok := w.metric(d.Name)
		if !ok || !m.Driver || m.Bound != d.Bound || m.Unit != d.Unit {
			t.Errorf("end-to-end metric %s missing or mislabelled: %+v", d.Name, m)
		}
	}
	if m, _ := w.metric("q6_p90_ms"); m.Bound != kindMetricBound("dss_native", "q6_p90_ms") || m.Driver {
		t.Errorf("q6_p90_ms bound/driver = %v/%v, want the per-kind bound and false", m.Bound, m.Driver)
	}
}

func TestKindMetricBounds(t *testing.T) {
	for _, c := range []struct {
		workload, metric string
		floor            float64
	}{
		{"dss_traced", "q6_p50_ms", 0.08},
		{"oltp_staged", "txn_p90_ms", 0.15},
		{"mixed_concurrent", "txn_p50_ms", 0.12},
		{"no_such_workload", "x_p50_ms", 0.08},
	} {
		if got := kindMetricFloor(c.workload, c.metric); got != c.floor {
			t.Errorf("floor(%s, %s) = %v, want %v", c.workload, c.metric, got, c.floor)
		}
		b, sp := kindMetricBound(c.workload, c.metric), spreadOf(c.workload, c.metric)
		if b < c.floor || b > max(c.floor, maxBound) || (2*sp <= maxBound && b < 2*sp) {
			t.Errorf("bound(%s, %s) = %v with floor %v and recorded spread %v", c.workload, c.metric, b, c.floor, sp)
		}
	}
	if got := kindMetricBound("dss_native", "fail_ratio"); got != 0 {
		t.Errorf("fail_ratio bound = %v, want 0 (any increase regresses)", got)
	}
	for _, w := range workloads {
		for _, d := range endToEnd {
			if _, ok := recordedSpread[w.name][d.Name]; !ok {
				t.Errorf("no recorded spread for %s on %s", d.Name, w.name)
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lat := func(v, spread float64) Metric {
		return Metric{Name: "q6_p50_ms", Better: "lower", Value: v, Bound: 0.08, Spread: spread}
	}
	rate := func(v float64) Metric {
		return Metric{Name: "ops_per_s", Better: "higher", Value: v, Bound: 0.08, Spread: 0.02}
	}
	fail := func(v float64) Metric { return Metric{Name: "fail_ratio", Better: "lower", Value: v} }
	for _, c := range []struct {
		name      string
		base, cur Metric
		want      verdict
	}{
		{"slower past the bound", lat(100, 0.02), lat(109, 0.02), regressed},
		{"slower inside the bound", lat(100, 0.02), lat(107, 0.02), unchanged},
		{"faster inside the spread", lat(100, 0.02), lat(99, 0.02), unchanged},
		{"faster past the spread", lat(100, 0.02), lat(95, 0.02), improved},
		{"spread wider than the bound", lat(100, 0.10), lat(150, 0.02), unresolved},
		{"rate fell past the bound", rate(100), rate(90), regressed},
		{"rate rose past the spread", rate(100), rate(105), improved},
		{"rate inside the bound", rate(100), rate(95), unchanged},
		{"more failures", fail(0), fail(0.01), regressed},
		{"fewer failures", fail(0.02), fail(0), improved},
		{"same failures", fail(0), fail(0), unchanged},
	} {
		if _, got := judge(c.base, c.cur); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}

	mk := func(q6, fails float64) Result {
		return Result{Schema: resultSchema, Comparable: true, Workloads: []WorkloadResult{{
			Name: "dss_native", Metrics: []Metric{lat(q6, 0.02), fail(fails)},
		}}}
	}
	if code := compareResults(mk(100, 0), mk(101, 0), io.Discard); code != 0 {
		t.Errorf("unchanged comparison exits %d, want 0", code)
	}
	if code := compareResults(mk(100, 0), mk(120, 0), io.Discard); code != 1 {
		t.Errorf("regression exits %d, want 1", code)
	}
	if code := compareResults(mk(100, 0), mk(90, 0.1), io.Discard); code != 1 {
		t.Errorf("a higher fail_ratio exits %d, want 1", code)
	}
	if code := compareResults(mk(100, 0), Result{}, io.Discard); code != 1 {
		t.Errorf("a missing workload exits %d, want 1", code)
	}
}

func TestNonDefaultWindowIsNotComparable(t *testing.T) {
	if !newResult(7, runSeconds*time.Second).Comparable {
		t.Error("the committed window is marked not comparable")
	}
	short := newResult(7, 2*time.Second)
	if short.Comparable {
		t.Fatal("a 2 s window is marked comparable")
	}
	path := filepath.Join(t.TempDir(), "short.json")
	if err := writeJSON(path, short); err != nil {
		t.Fatal(err)
	}
	if _, err := loadComparable(path); err == nil {
		t.Error("-compare accepted a result measured with a non-default window")
	}
	full := newResult(7, runSeconds*time.Second)
	if err := writeJSON(path, full); err != nil {
		t.Fatal(err)
	}
	got, err := loadComparable(path)
	if err != nil || !reflect.DeepEqual(got, full) {
		t.Errorf("result file did not round-trip: %v", err)
	}
}

func TestPoolSeeds(t *testing.T) {
	a, b := poolSeeds(7, txnPool), poolSeeds(7, txnPool)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different request seeds")
	}
	if reflect.DeepEqual(a, poolSeeds(8, txnPool)) {
		t.Error("different seeds gave the same request seeds")
	}
	for _, s := range a {
		if s == 0 {
			t.Error("a request seed is 0, which the API reads as \"default\"")
		}
	}
}

// TestManifestMatchesBenchmarkJSON keeps BENCHMARK.json, which the
// acceptance driver reads, identical to the tables the code reports from.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifest
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if want := buildManifest(); !reflect.DeepEqual(onDisk, want) {
		t.Error("BENCHMARK.json differs from the code's tables; regenerate it with: go run ./bench -manifest > BENCHMARK.json")
	}

	m := buildManifest()
	if len(m.PerLayer) > 128 || len(m.EndToEnd) > 16 || len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("manifest outside the contract's sizes: %d per-layer, %d end-to-end, %d workloads", len(m.PerLayer), len(m.EndToEnd), len(m.Workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if n == "" || len(n) > 64 || seen[n] {
			t.Errorf("name %q is empty, too long or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, e := range m.EndToEnd {
		name(e.Name)
		if e.Bound <= 0 || e.Bound > 0.25 || len(e.Unit) > 16 {
			t.Errorf("end-to-end metric %s: bound %v or unit %q outside the contract", e.Name, e.Bound, e.Unit)
		}
		setup = setup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	for _, p := range m.PerLayer {
		name(p.Name)
		if len(p.Unit) > 16 || (p.Better != "lower" && p.Better != "higher") {
			t.Errorf("per-layer metric %s: unit %q or better %q outside the contract", p.Name, p.Unit, p.Better)
		}
	}
}
