package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// The traced run. Every layer is timed from the benchmark's own files,
// around calls into the layer's exported functions; nothing inside the
// program records a span yet (that is a later issue). A rung is one
// timed call; rungs of one request shape are stacked — HTTP round trip
// over Runner.Run over its simulated sides over trace production — and a
// rung's self time is its time minus the rungs directly below it.

// span is one timed call: name, start and end (ns since the ladder
// started), the span that caused it, and the operation it belongs to.
// Spans stay in memory and are written to bench/out/spans.json at exit.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: a root span
	Op      string `json:"op"`     // spans of one request shape share it
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// rung is one level of a stacked ladder: its measured time and the
// rungs directly below it (whose times its own contains).
type rung struct {
	name  string
	ms    float64
	below []string
}

// rungSelf is a rung's time minus the rungs below it.
func rungSelf(rungs []rung) map[string]float64 {
	byName := map[string]float64{}
	for _, r := range rungs {
		byName[r.name] = r.ms
	}
	self := map[string]float64{}
	for _, r := range rungs {
		s := r.ms
		for _, b := range r.below {
			s -= byName[b]
		}
		self[r.name] = s
	}
	return self
}

// ladder collects spans and per-layer metrics of one traced run.
type ladder struct {
	seed      int64
	t0        time.Time
	spans     []span
	values    map[string]float64
	attempted int
	failed    int
	errors    []string
}

func newLadder(seed int64) *ladder {
	return &ladder{seed: seed, t0: time.Now(), values: map[string]float64{}}
}

// open starts a span; the returned func ends it and returns it.
func (l *ladder) open(parent int, op, name string) (id int, done func() span) {
	id = len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNS: time.Since(l.t0).Nanoseconds()})
	return id, func() span {
		s := &l.spans[id-1]
		s.EndNS = time.Since(l.t0).Nanoseconds()
		return *s
	}
}

// time runs fn inside a span and counts it as one attempted call; an
// error (or a wrong output the rung detected) counts it failed.
func (l *ladder) time(parent int, op, name string, fn func() error) span {
	_, done := l.open(parent, op, name)
	err := fn()
	s := done()
	l.attempted++
	if err != nil {
		l.failed++
		if len(l.errors) < 8 {
			l.errors = append(l.errors, name+": "+err.Error())
		}
	}
	return s
}

// medianMS times fn reps times as root spans and returns the median.
func (l *ladder) medianMS(op, name string, reps int, fn func() error) float64 {
	ms := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		ms = append(ms, l.time(0, op, name, fn).ms())
	}
	return median(ms)
}

func (l *ladder) put(name string, v float64) { l.values[name] = v }

// runLadder is the traced run: every rung group in turn, then the
// metric table, the span file, and (for the acceptance driver, which
// names a workload) the result line. The ladder is the same whichever
// workload is named — each rung has its own fixed inputs — so the
// driver's per-workload traced runs are repeat measurements of it.
func runLadder(workload string, seed int64, outDir string) int {
	if workload != "" {
		if _, ok := findWorkload(workload); !ok {
			fatal(2, "unknown workload %q", workload)
		}
	}
	if seed == 0 {
		seed = 7 // what a zero request seed means to the API
	}
	l := newLadder(seed)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var d dbs
	for _, group := range []struct {
		name string
		run  func() error
	}{
		{"host", func() error { return rungsHost(l) }},
		{"builds", func() error { return rungsBuilds(l, &d) }},
		{"storage", func() error { return rungsStorage(l, &d) }},
		{"engine", func() error { return rungsEngine(l, &d) }},
		{"workload", func() error { return rungsWorkload(l, &d) }},
		{"trace+cache", func() error { return rungsTraceCache(l) }},
		{"oltp+txn", func() error { return rungsOLTP(l) }},
		{"core+sim", func() error { return rungsCore(l) }},
		{"server", func() error { return rungsServer(l) }},
	} {
		fmt.Fprintf(os.Stderr, "bench: ladder: %s\n", group.name)
		if err := group.run(); err != nil {
			fatal(1, "ladder %s: %v", group.name, err)
		}
		// Collect each group's garbage before the next, so one group's
		// allocations are not the next one's GC bill.
		runtime.GC()
	}
	runtime.ReadMemStats(&after)
	l.put("host.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	l.put("host.peak_rss_mb", peakRSSMB())

	line := driverLine{Correct: l.failed == 0, Attempted: l.attempted, Failed: l.failed, Metrics: map[string]driverValue{}}
	fmt.Printf("per-layer metrics (seed %d, %d timed calls, %d failed)\n", seed, l.attempted, l.failed)
	for _, d := range perLayer {
		v, ok := l.values[d.Name]
		if !ok {
			fatal(1, "ladder produced no %s", d.Name)
		}
		fmt.Printf("  %-44s %16.4f %s\n", d.Name, v, d.Unit)
		line.Metrics[d.Name] = driverValue{Value: v, Unit: d.Unit}
	}
	run, sides := l.values["core.run_ms.q6"], 2*(l.values["core.vec_side_ms.row.q6"]+l.values["core.vec_side_ms.vec.q6"])
	fmt.Printf("rungs: core.run_ms.q6 %.1f ms = 2*(row+vec) %.1f ms %+.1f%%\n", run, sides, (run-sides)/run*100)
	for _, e := range l.errors {
		fmt.Printf("  FAILED %s\n", e)
	}
	if err := writeJSON(filepath.Join(outDir, "spans.json"), l.spans); err != nil {
		fatal(1, "write spans: %v", err)
	}
	if err := writeJSON(filepath.Join(outDir, "ladder.json"), line); err != nil {
		fatal(1, "write ladder: %v", err)
	}
	if workload != "" {
		line.emit()
	}
	if l.failed > 0 {
		return 1
	}
	return 0
}
