// Package obs is the unified observability layer: a metrics registry
// (named counters, gauges, and log-bucketed histograms, with optional
// labels) rendered in the Prometheus text exposition format, and a
// dual-clock span tracer whose spans carry both host wall time and
// simulated cycles, exportable as Chrome trace-event JSON (span.go,
// chrome.go).
//
// Everything is nil-safe on the observe path: a nil Counter, Gauge,
// Histogram, Tracer, or zero Scope discards its observations, so
// instrumented code runs unconditionally and pays nothing when the
// subsystem is disabled.
package obs

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into cumulative-on-output buckets with
// fixed upper bounds, plus a running sum — the Prometheus histogram
// model. Observe is lock-free and safe for concurrent use.
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// LogBuckets returns count upper bounds starting at start, each factor
// times the previous — the geometric ladder latency distributions need.
func LogBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count <= 0 {
		panic(fmt.Sprintf("obs: bad log buckets (start %g, factor %g, count %d)", start, factor, count))
	}
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metric is one registered family, renderable in the text exposition.
type metric interface {
	metricName() string
	write(w io.Writer)
}

// family carries the name/help shared by every registered kind.
type family struct {
	name, help string
}

func (f family) metricName() string { return f.name }

func (f family) header(w io.Writer, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, typ)
}

type counterFamily struct {
	family
	c *Counter
}

func (f counterFamily) write(w io.Writer) {
	f.header(w, "counter")
	fmt.Fprintf(w, "%s %d\n", f.name, f.c.Value())
}

type gaugeFamily struct {
	family
	g *Gauge
}

func (f gaugeFamily) write(w io.Writer) {
	f.header(w, "gauge")
	fmt.Fprintf(w, "%s %d\n", f.name, f.g.Value())
}

type histogramFamily struct {
	family
	h *Histogram
}

func (f histogramFamily) write(w io.Writer) {
	f.header(w, "histogram")
	writeHistogram(w, f.name, "", f.h)
}

// writeHistogram renders one histogram child: cumulative buckets, an
// explicit +Inf bucket equal to _count, then _sum and _count. labels is
// either empty or a rendered, comma-joined label list without braces.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) {
	join := func(extra string) string {
		switch {
		case labels == "":
			return "{" + extra + "}"
		case extra == "":
			return "{" + labels + "}"
		default:
			return "{" + labels + "," + extra + "}"
		}
	}
	plain := ""
	if labels != "" {
		plain = "{" + labels + "}"
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, join(`le="`+formatLe(b)+`"`), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, join(`le="+Inf"`), h.Count())
	fmt.Fprintf(w, "%s_sum%s %s\n", name, plain, strconv.FormatFloat(h.Sum(), 'g', -1, 64))
	fmt.Fprintf(w, "%s_count%s %d\n", name, plain, h.Count())
}

func formatLe(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// CounterVec is a counter family with labels; With materializes (or
// returns) the child for one label-value tuple.
type CounterVec struct {
	family
	labels   []string
	mu       sync.Mutex
	children map[string]*Counter
	order    []string
}

// With returns the child counter for the given label values (one per
// declared label name, in declaration order).
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	key := labelKey(v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[key]
	if !ok {
		c = &Counter{}
		v.children[key] = c
		v.order = append(v.order, key)
	}
	return c
}

func (v *CounterVec) write(w io.Writer) {
	v.header(w, "counter")
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, key := range sorted(v.order) {
		fmt.Fprintf(w, "%s{%s} %d\n", v.name, key, v.children[key].Value())
	}
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct {
	family
	labels   []string
	bounds   []float64
	mu       sync.Mutex
	children map[string]*Histogram
	order    []string
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	key := labelKey(v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.children[key]
	if !ok {
		h = newHistogram(v.bounds)
		v.children[key] = h
		v.order = append(v.order, key)
	}
	return h
}

func (v *HistogramVec) write(w io.Writer) {
	v.header(w, "histogram")
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, key := range sorted(v.order) {
		writeHistogram(w, v.name, key, v.children[key])
	}
}

// labelKey renders one label-value tuple in exposition syntax.
func labelKey(labels, values []string) string {
	if len(labels) != len(values) {
		panic(fmt.Sprintf("obs: %d values for labels %v", len(values), labels))
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l + `="` + escapeLabel(values[i]) + `"`
	}
	return strings.Join(parts, ",")
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func sorted(keys []string) []string {
	out := append([]string(nil), keys...)
	sort.Strings(out)
	return out
}

// Registry holds named metric families and renders them in registration
// order. Registering an existing name returns the existing instance (and
// panics if the kind differs), so independent components can share one
// family by name.
type Registry struct {
	mu     sync.Mutex
	byName map[string]metric
	order  []metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]metric)}
}

func (r *Registry) register(name string, make func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		return m
	}
	m := make()
	r.byName[name] = m
	r.order = append(r.order, m)
	return m
}

// Counter registers (or returns) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(name, func() metric {
		return counterFamily{family{name, help}, &Counter{}}
	})
	f, ok := m.(counterFamily)
	if !ok {
		panic(fmt.Sprintf("obs: %s is not a counter", name))
	}
	return f.c
}

// Gauge registers (or returns) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(name, func() metric {
		return gaugeFamily{family{name, help}, &Gauge{}}
	})
	f, ok := m.(gaugeFamily)
	if !ok {
		panic(fmt.Sprintf("obs: %s is not a gauge", name))
	}
	return f.g
}

// Histogram registers (or returns) the named histogram with the given
// bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	m := r.register(name, func() metric {
		return histogramFamily{family{name, help}, newHistogram(bounds)}
	})
	f, ok := m.(histogramFamily)
	if !ok {
		panic(fmt.Sprintf("obs: %s is not a histogram", name))
	}
	return f.h
}

// CounterVec registers (or returns) the named labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	m := r.register(name, func() metric {
		return &CounterVec{family: family{name, help}, labels: labels, children: make(map[string]*Counter)}
	})
	f, ok := m.(*CounterVec)
	if !ok {
		panic(fmt.Sprintf("obs: %s is not a counter vec", name))
	}
	return f
}

// HistogramVec registers (or returns) the named labelled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	m := r.register(name, func() metric {
		return &HistogramVec{family: family{name, help}, labels: labels, bounds: append([]float64(nil), bounds...), children: make(map[string]*Histogram)}
	})
	f, ok := m.(*HistogramVec)
	if !ok {
		panic(fmt.Sprintf("obs: %s is not a histogram vec", name))
	}
	return f
}

// WritePrometheus renders every family in registration order in the text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := append([]metric(nil), r.order...)
	r.mu.Unlock()
	for _, m := range fams {
		m.write(w)
	}
}

// JoinMetrics bundles the hash-join internals a driver can hand down
// into join builds (nil fields are simply not fed): the bucket-chain
// length distribution at build completion and per-mode build/partition
// counters, which together show how radix partitioning shortens the
// dependent-load chains behind the paper's DSS data stalls.
type JoinMetrics struct {
	// ChainLen observes every non-empty bucket chain's length when a
	// join build finishes.
	ChainLen *Histogram
	// Builds counts completed join builds by join mode; Partitions
	// counts the partition tables those builds fanned out into (a
	// chained build counts one), so Partitions/Builds is the fanout.
	Builds     *CounterVec
	Partitions *CounterVec
}

// NewJoinMetrics registers the engine join families on r.
func NewJoinMetrics(r *Registry) JoinMetrics {
	return JoinMetrics{
		ChainLen: r.Histogram("engine_hash_chain_len",
			"Hash-join bucket chain lengths at build completion.",
			LogBuckets(1, 2, 8)),
		Builds: r.CounterVec("engine_join_builds_total",
			"Completed hash-join builds by join mode.", "mode"),
		Partitions: r.CounterVec("engine_join_partitions_total",
			"Partition hash tables created by join builds, by join mode.", "mode"),
	}
}

// SchedMetrics bundles the scheduler-internals histograms a driver can
// hand down into cohort-scheduled runs (nil fields are simply not fed).
type SchedMetrics struct {
	// QuantumSteps observes continuation steps executed per scheduling
	// quantum; ParkQuanta observes how many quanta an item stayed parked
	// on a busy lock before resuming.
	QuantumSteps *Histogram
	ParkQuanta   *Histogram
}

// ForkMetrics counts and times the private TPC-C databases a driver
// forks from its resident image (nil fields are simply not fed).
type ForkMetrics struct {
	Forks   *Counter
	Seconds *Histogram
}

// NewForkMetrics registers the fork families on r.
func NewForkMetrics(r *Registry) ForkMetrics {
	return ForkMetrics{
		Forks: r.Counter("dbserver_tpcc_forks_total",
			"Private TPC-C databases forked from the resident image (one per staged-oltp side)."),
		Seconds: r.Histogram("dbserver_tpcc_fork_seconds",
			"Host time of one fork: schema replay plus the copy of the image's pages.",
			LogBuckets(0.00002, 2, 16)), // 20us .. ~0.66s
	}
}

// Observe records one fork that took d.
func (m ForkMetrics) Observe(d time.Duration) {
	m.Forks.Inc()
	m.Seconds.Observe(d.Seconds())
}

// LoadMetrics times the database loads a driver performs lazily, on the
// first request that needs the database, so that a slow first request can
// be told from a slow simulation (unset fields are simply not fed).
type LoadMetrics struct {
	Seconds *HistogramVec // by database: "tpch" or "tpcc"
	// Log, when set, gets one line per load.
	Log *slog.Logger
}

// NewLoadMetrics registers the load family on r, both databases present
// from the first scrape.
func NewLoadMetrics(r *Registry) LoadMetrics {
	v := r.HistogramVec("dbserver_load_seconds",
		"Host time of one lazy database load (TPC-H build, or TPC-C build and image).",
		LogBuckets(0.001, 2, 14), "db") // 1ms .. ~8s
	v.With("tpch")
	v.With("tpcc")
	return LoadMetrics{Seconds: v}
}

// Observe records one load of database db that took d.
func (m LoadMetrics) Observe(db string, d time.Duration) {
	m.Seconds.With(db).Observe(d.Seconds())
	if m.Log != nil {
		m.Log.Info("database loaded", "db", db, "seconds", d.Seconds())
	}
}

// SideMetrics counts the simulations ("sides") of the requests a driver
// runs by where they ran: Overlapped beside their twin, on a second
// processor, or Sequential, alone on the request's goroutine (nil fields
// are simply not fed).
type SideMetrics struct {
	Overlapped *Counter
	Sequential *Counter
}

// NewSideMetrics registers the side-placement family on r, both children
// present from the first scrape.
func NewSideMetrics(r *Registry) SideMetrics {
	v := r.CounterVec("dbserver_sides_total",
		"Simulated sides of served requests, by whether the side ran beside its twin or alone.", "placement")
	return SideMetrics{Overlapped: v.With("overlapped"), Sequential: v.With("sequential")}
}
