// Command bench is the repository's benchmark: four closed-loop
// workloads measured end to end with tracing off, and a separate traced
// run that times each layer from outside (see README.md).
//
//	go run ./bench -seed 7                 all four workloads, table + bench/out/result.json
//	go run ./bench -ladder                 per-layer metrics + bench/out/spans.json
//	go run ./bench -aa                     run twice, compare the two results
//	go run ./bench -compare a.json b.json  judge b against a
//	go run ./bench -manifest               BENCHMARK.json as the code defines it
//
// The acceptance driver runs one workload per process:
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print the driver's result line (default: all four)")
		seed     = flag.Int64("seed", 7, "seed of every generated request")
		seconds  = flag.Int("seconds", runSeconds, "measured window per workload, in seconds")
		window   = flag.Duration("window", 0, "measured window as a duration (overrides -seconds; non-default windows are not comparable)")
		trace    = flag.Int("trace", 0, "1: the traced per-layer run instead of the end-to-end run")
		ladder   = flag.Bool("ladder", false, "the traced per-layer run (same as -trace 1)")
		compare  = flag.Bool("compare", false, "compare two result files: -compare base.json new.json")
		aa       = flag.Bool("aa", false, "run the whole benchmark twice and compare the two results")
		manif    = flag.Bool("manifest", false, "print BENCHMARK.json as the code defines it")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory for result and span files")
	)
	flag.Parse()
	win := time.Duration(*seconds) * time.Second
	if *window > 0 {
		win = *window
	}

	switch {
	case *manif:
		b, err := json.MarshalIndent(buildManifest(), "", "  ")
		if err != nil {
			fatal(1, "%v", err)
		}
		fmt.Println(string(b))
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare base.json new.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *ladder || *trace == 1:
		os.Exit(runLadder(*workload, *seed, *outDir))
	case *aa:
		os.Exit(runAA(*seed, win, *outDir))
	case *workload != "":
		os.Exit(runDriver(*workload, *seed, win, *outDir))
	default:
		res, ok := runAll(*seed, win)
		res.print(os.Stdout)
		if err := writeJSON(filepath.Join(*outDir, "result.json"), res); err != nil {
			fatal(1, "write result: %v", err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

// runWorkload sets the workload up setupReps times (reporting the
// median as setup_s), measures the last instance for the window, and
// runs the end-of-window checks.
func runWorkload(def workloadDef, seed int64, window time.Duration) (WorkloadResult, error) {
	var in *instance
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if in != nil {
			if err := in.close(); err != nil {
				return WorkloadResult{}, fmt.Errorf("%s: close: %w", def.name, err)
			}
			in = nil
			// The previous instance's arenas are garbage now; collect them
			// outside the timed set-up so each repetition starts alike.
			runtime.GC()
		}
		t0 := time.Now()
		next, err := def.setup(seed)
		if err != nil {
			return WorkloadResult{}, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		in = next
	}

	if err := in.prepare(); err != nil {
		return WorkloadResult{}, fmt.Errorf("%s: goldens: %w", def.name, err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	samples, elapsed := in.measure(window)
	runtime.ReadMemStats(&after)

	res := summarize(def.name, def.kinds, samples, elapsed, setups)
	res.Why, res.Clients = def.why, def.clients
	res.PeakRSSMB = peakRSSMB()
	res.GCPauseMS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	if res.Attempted > 0 {
		res.AllocMBPerOp = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / float64(res.Attempted)
	}
	if err := in.finish(); err != nil {
		res.Correct = false
		res.Errors = append(res.Errors, "end of window: "+err.Error())
	}
	if err := in.close(); err != nil {
		return res, fmt.Errorf("%s: close: %w", def.name, err)
	}
	return res, nil
}

// runAll measures the four workloads one after the other in this
// process; ok is false when any operation or end-of-window check failed.
func runAll(seed int64, window time.Duration) (Result, bool) {
	res := newResult(seed, window)
	ok := true
	for _, def := range workloads {
		fmt.Fprintf(os.Stderr, "bench: %s (%d client(s), %s window)\n", def.name, def.clients, window)
		w, err := runWorkload(def, seed, window)
		if err != nil {
			fatal(1, "%v", err)
		}
		ok = ok && w.Correct
		res.Workloads = append(res.Workloads, w)
		// Return the finished workload's arenas to the OS so the next
		// one's peak RSS is its own.
		debug.FreeOSMemory()
	}
	return res, ok
}

// driverLine is the last line of standard output the acceptance driver
// parses.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (d driverLine) emit() {
	b, err := json.Marshal(d)
	if err != nil {
		fatal(1, "encode result line: %v", err)
	}
	fmt.Println(string(b))
}

// runDriver is one end-to-end run of one workload for the acceptance
// driver: the table for a human, the result file, then the result line.
func runDriver(name string, seed int64, window time.Duration, outDir string) int {
	def, ok := findWorkload(name)
	if !ok {
		fatal(2, "unknown workload %q", name)
	}
	w, err := runWorkload(def, seed, window)
	if err != nil {
		fatal(1, "%v", err)
	}
	res := newResult(seed, window)
	res.Workloads = []WorkloadResult{w}
	res.print(os.Stdout)
	if err := writeJSON(filepath.Join(outDir, "result-"+name+".json"), res); err != nil {
		fatal(1, "write result: %v", err)
	}
	line := driverLine{Correct: w.Correct, Attempted: w.Attempted, Failed: w.Failed, Metrics: map[string]driverValue{}}
	for _, d := range endToEnd {
		m, _ := w.metric(d.Name)
		line.Metrics[d.Name] = driverValue{Value: m.Value, Unit: d.Unit}
	}
	line.emit()
	if !w.Correct {
		return 1
	}
	return 0
}

// runAA runs the whole benchmark twice on the same code and judges the
// second against the first with the comparison -compare applies.
func runAA(seed int64, window time.Duration, outDir string) int {
	a, okA := runAll(seed, window)
	b, okB := runAll(seed, window)
	for name, r := range map[string]Result{"result-a.json": a, "result-b.json": b} {
		if err := writeJSON(filepath.Join(outDir, name), r); err != nil {
			fatal(1, "write result: %v", err)
		}
	}
	code := compareResults(a, b, os.Stdout)
	if !okA || !okB {
		return 1
	}
	return code
}
