package obs

import (
	"log/slog"
	"math"
	"strings"
	"testing"
	"time"
)

func TestLogBuckets(t *testing.T) {
	b := LogBuckets(0.001, 2, 4)
	want := []float64{0.001, 0.002, 0.004, 0.008}
	if len(b) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(b), len(want))
	}
	for i := range b {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Errorf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
}

func TestLogBucketsPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for factor <= 1")
		}
	}()
	LogBuckets(1, 1, 3)
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "test", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-560.5) > 1e-9 {
		t.Errorf("sum = %g, want 560.5", h.Sum())
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	// Buckets render cumulative, and the explicit +Inf equals _count.
	for _, line := range []string{
		`h_bucket{le="1"} 1`,
		`h_bucket{le="10"} 3`,
		`h_bucket{le="100"} 4`,
		`h_bucket{le="+Inf"} 5`,
		`h_sum 560.5`,
		`h_count 5`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestNilMetricsDiscard(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var cv *CounterVec
	var hv *HistogramVec
	c.Inc()
	c.Add(3)
	g.Set(7)
	g.Add(-2)
	h.Observe(1)
	cv.With("x").Inc()
	hv.With("x").Observe(1)
	ForkMetrics{}.Observe(time.Millisecond) // a bare core.Runner's zero value
	LoadMetrics{}.Observe("tpch", time.Millisecond)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil metrics recorded something")
	}
}

func TestForkMetricsExposition(t *testing.T) {
	r := NewRegistry()
	m := NewForkMetrics(r)
	m.Observe(250 * time.Microsecond)
	m.Observe(3 * time.Millisecond)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, line := range []string{
		"# TYPE dbserver_tpcc_forks_total counter",
		"dbserver_tpcc_forks_total 2",
		"# TYPE dbserver_tpcc_fork_seconds histogram",
		`dbserver_tpcc_fork_seconds_bucket{le="0.00016"} 0`,
		`dbserver_tpcc_fork_seconds_bucket{le="0.00032"} 1`,
		`dbserver_tpcc_fork_seconds_bucket{le="0.00512"} 2`,
		`dbserver_tpcc_fork_seconds_bucket{le="+Inf"} 2`,
		"dbserver_tpcc_fork_seconds_count 2",
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestLoadMetricsExposition(t *testing.T) {
	r := NewRegistry()
	var logged strings.Builder
	m := NewLoadMetrics(r)
	m.Log = slog.New(slog.NewTextHandler(&logged, nil))
	m.Observe("tpch", 150*time.Millisecond)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, line := range []string{
		"# TYPE dbserver_load_seconds histogram",
		`dbserver_load_seconds_bucket{db="tpch",le="0.128"} 0`,
		`dbserver_load_seconds_bucket{db="tpch",le="0.256"} 1`,
		`dbserver_load_seconds_count{db="tpch"} 1`,
		`dbserver_load_seconds_count{db="tpcc"} 0`, // exposed before its first load
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
	if got := logged.String(); strings.Count(got, "\n") != 1 || !strings.Contains(got, "db=tpch") || !strings.Contains(got, "seconds=0.15") {
		t.Errorf("one load logged as %q", got)
	}
}

func TestRegistryRenderOrderAndReuse(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("zz_first", "registered first")
	r.Gauge("aa_second", "registered second")
	a2 := r.Counter("zz_first", "registered first")
	if a != a2 {
		t.Fatal("re-registering a name returned a different counter")
	}
	a.Add(2)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	// Registration order, not name order.
	if strings.Index(out, "zz_first") > strings.Index(out, "aa_second") {
		t.Errorf("families rendered out of registration order:\n%s", out)
	}
	if !strings.Contains(out, "# HELP zz_first registered first\n# TYPE zz_first counter\nzz_first 2\n") {
		t.Errorf("counter family misrendered:\n%s", out)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "counter")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering m as a gauge")
		}
	}()
	r.Gauge("m", "gauge")
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("req_total", "requests", "mode")
	cv.With("vec-dss").Add(3)
	cv.With("staged-oltp").Inc()
	if cv.With("vec-dss").Value() != 3 {
		t.Error("With did not return the same child for the same labels")
	}
	hv := r.HistogramVec("lat", "latency", []float64{1, 2}, "mode")
	hv.With(`we"ird`).Observe(1.5)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, line := range []string{
		`req_total{mode="vec-dss"} 3`,
		`req_total{mode="staged-oltp"} 1`,
		`lat_bucket{mode="we\"ird",le="2"} 1`,
		`lat_count{mode="we\"ird"} 1`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}
