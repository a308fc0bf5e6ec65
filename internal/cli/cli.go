// Package cli is the one flag surface shared by the drivers. cmd/cmpsim
// and cmd/dbshell historically declared ~33 overlapping flags each with
// its own copy of the parsing and defaulting logic; Options declares
// every knob once, keeps both binaries' flag names as aliases, and
// builds the core.Request / core.Cell the unified execution API runs.
// Adding the next knob means adding it here, once.
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
)

// Options holds every driver knob. Register* methods bind the subset a
// binary exposes onto its FlagSet under the historical flag names.
type Options struct {
	Camp     string // fc | lc
	Workload string // oltp | dss
	Scale    string // full | test

	Unsaturated bool
	Clients     int
	Cores       int
	L2MB        int
	L2Lat       int
	SMP         bool

	Query   int
	Workers int
	Share   bool
	Vec     bool
	Row     bool

	Steps  bool
	Cohort int
	Txns   int
	Parts  int
	Remote int

	Window uint64
	Warm   int

	// TraceOut writes the executor-mode runs' dual-clock spans as Chrome
	// trace-event JSON to this path.
	TraceOut string

	// CPUProfile writes a pprof CPU profile of the whole run to this
	// path, so a perf regression caught by the bench gates is diagnosable
	// straight from the artifact.
	CPUProfile string

	// NativeWorkers is the comma-separated worker-count sweep for the
	// native fast path (e.g. "1,2,4").
	NativeWorkers string

	// ZeroCopy additionally measures each native worker count with
	// borrowed page-aliasing scan blocks (copy vs borrow side by side).
	ZeroCopy bool

	// JoinMode pins the hash-join strategy of joining plans (Q13):
	// chained, partitioned, prefetch, or auto (the build-size policy).
	JoinMode string

	Lineitems int

	fs *flag.FlagSet
}

// RegisterSim binds the simulation driver's (cmd/cmpsim) flag surface.
func (o *Options) RegisterSim(fs *flag.FlagSet) {
	o.fs = fs
	fs.StringVar(&o.Camp, "camp", "fc", "core camp: fc (out-of-order) or lc (multithreaded in-order)")
	fs.StringVar(&o.Workload, "workload", "oltp", "workload: oltp or dss")
	fs.BoolVar(&o.Unsaturated, "unsaturated", false, "single client, response-time mode")
	fs.IntVar(&o.Clients, "clients", 0, "saturated client count (0 = paper default)")
	fs.IntVar(&o.Cores, "cores", 4, "cores on chip")
	fs.IntVar(&o.L2MB, "l2mb", 26, "L2 size in MB")
	fs.IntVar(&o.L2Lat, "l2lat", 0, "L2 hit latency in cycles (0 = Cacti model)")
	fs.BoolVar(&o.SMP, "smp", false, "private L2 per core (SMP) instead of shared (CMP)")
	fs.IntVar(&o.Query, "query", 6, "DSS query analog for unsaturated runs (1, 6, 13, 16)")
	fs.IntVar(&o.Workers, "workers", 0, "run one DSS query on the morsel-driven parallel executor with N workers (1 and 6; 13 runs the parallel-join core)")
	fs.BoolVar(&o.Share, "share", false, "compare -clients concurrent DSS clients with and without cross-query work sharing (shared circular scans + result reuse); -query picks 1, 6, 13, or 0 for the mix")
	fs.BoolVar(&o.Vec, "vec", false, "compare one serial DSS query on the vectorized executor against the row-at-a-time reference path (identical chip geometry); -query picks 1, 6, or 13")
	fs.BoolVar(&o.Steps, "steps", false, "compare monolithic OLTP execution against the STEPS-style cohort-scheduled staged executor (identical chip geometry, identical transaction inputs, byte-identical effects); -clients sets logical client streams, -cohort the in-flight window")
	fs.IntVar(&o.Cohort, "cohort", 16, "in-flight transactions for -steps cohort scheduling")
	fs.IntVar(&o.Txns, "txns", 8, "transactions per logical client for -steps")
	fs.IntVar(&o.Parts, "parts", 1, "with -steps: partition the cohort scheduler by home warehouse across N workers (one per simulated core) and report scaling vs 1 partition")
	fs.IntVar(&o.Remote, "remote", 0, "with -steps: percent chance a NewOrder line / Payment customer is drawn from a remote warehouse (cross-partition transactions are fenced)")
	fs.Uint64Var(&o.Window, "window", 400000, "measured window in cycles (saturated)")
	fs.IntVar(&o.Warm, "warm", 400000, "functional-warming refs per thread")
	fs.StringVar(&o.Scale, "scale", "full", "workload scale: full or test")
	fs.StringVar(&o.TraceOut, "trace-out", "", "write executor-mode span traces (dual clock: simulated cycles + wall time) as Chrome trace-event JSON to this file (load in Perfetto)")
	fs.StringVar(&o.JoinMode, "join-mode", "", "hash-join strategy for joining plans (Q13): chained, partitioned, prefetch, or auto (build-size policy)")
	fs.StringVar(&o.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
}

// RegisterNative binds the native driver's (cmd/dbshell) flag surface —
// the same knobs under the same names, with native-run defaults.
func (o *Options) RegisterNative(fs *flag.FlagSet) {
	o.fs = fs
	fs.IntVar(&o.Txns, "txns", 2000, "TPC-C-like transactions to run")
	fs.IntVar(&o.Lineitems, "lineitems", 100000, "TPC-H-like lineitem rows")
	fs.IntVar(&o.Workers, "workers", 1, "morsel-parallel workers for the planned DSS analogs (Q1/Q6/Q13)")
	fs.BoolVar(&o.Share, "share", false, "run DSS analogs through the work-sharing subsystem (shared circular scans + result reuse)")
	fs.IntVar(&o.Clients, "clients", 8, "concurrent clients for the -share throughput comparison")
	fs.BoolVar(&o.Row, "row", false, "run serial DSS analogs on the row-at-a-time reference operators instead of the vectorized executor")
	fs.BoolVar(&o.Steps, "steps", false, "compare monolithic vs STEPS-style cohort-scheduled OLTP natively (no simulation): same inputs, byte-identical state, scheduler statistics")
	fs.IntVar(&o.Cohort, "cohort", 16, "in-flight transactions for -steps cohort scheduling")
	fs.IntVar(&o.Parts, "parts", 1, "with -steps: partition the cohort scheduler by home warehouse across N native workers")
	fs.IntVar(&o.Remote, "remote", 0, "with -steps: percent chance of remote-warehouse NewOrder lines / Payment customers (cross-partition transactions are fenced)")
	fs.StringVar(&o.NativeWorkers, "native-workers", "", "comma-separated worker counts (e.g. 1,2,4): sweep the native fast path on Q1/Q6/Q13 — compiled predicates + selection vectors vs the interpreted reference, morsel-parallel at each count")
	fs.BoolVar(&o.ZeroCopy, "zero-copy", false, "with -native-workers: also measure each count with borrowed page-aliasing scan blocks (zero-copy), recording the copy-vs-borrow pair side by side")
	fs.StringVar(&o.JoinMode, "join-mode", "", "hash-join strategy for joining plans (Q13): chained, partitioned, prefetch, or auto (build-size policy); with -native-workers on Q13, an empty value measures all three side by side")
	fs.StringVar(&o.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
}

// StartCPUProfile begins the -cpuprofile capture and returns the function
// that flushes and closes it; without the flag both are no-ops. Callers
// run stop on every exit path, os.Exit included, or the profile is empty.
func (o *Options) StartCPUProfile() (stop func(), err error) {
	if o.CPUProfile == "" {
		return func() {}, nil
	}
	f, err := os.Create(o.CPUProfile)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// NativeWorkerCounts parses the -native-workers sweep; nil means the
// flag was not given.
func (o *Options) NativeWorkerCounts() ([]int, error) {
	if o.NativeWorkers == "" {
		return nil, nil
	}
	var counts []int
	for _, s := range strings.Split(o.NativeWorkers, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -native-workers entry %q (want positive integers, e.g. 1,2,4)", s)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

// WasSet reports whether the named flag was given on the command line.
func (o *Options) WasSet(name string) bool {
	set := false
	if o.fs != nil {
		o.fs.Visit(func(f *flag.Flag) {
			if f.Name == name {
				set = true
			}
		})
	}
	return set
}

// CampKind parses the -camp flag.
func (o *Options) CampKind() (sim.Camp, error) {
	switch o.Camp {
	case "fc":
		return sim.FatCamp, nil
	case "lc":
		return sim.LeanCamp, nil
	}
	return 0, fmt.Errorf("unknown camp %q", o.Camp)
}

// WorkloadKind parses the -workload flag.
func (o *Options) WorkloadKind() (core.WorkloadKind, error) {
	switch o.Workload {
	case "oltp":
		return core.OLTP, nil
	case "dss":
		return core.DSS, nil
	}
	return 0, fmt.Errorf("unknown workload %q", o.Workload)
}

// ScaleCfg parses the -scale flag.
func (o *Options) ScaleCfg() (core.Scale, error) {
	switch o.Scale {
	case "full", "":
		return core.FullScale(), nil
	case "test":
		return core.TestScale(), nil
	}
	return core.Scale{}, fmt.Errorf("unknown scale %q", o.Scale)
}

// Mode reports which unified-API mode the mode flags select; ok is false
// for a plain characterization cell run.
func (o *Options) Mode() (mode core.Mode, ok bool) {
	switch {
	case o.Steps:
		return core.ModeStagedOLTP, true
	case o.Vec:
		return core.ModeVecDSS, true
	case o.Share:
		return core.ModeSharedDSS, true
	case o.Workers > 0:
		return core.ModeParallelDSS, true
	}
	return "", false
}

// Cell materializes the chip geometry the flags describe, including the
// historical warm-budget defaulting: an explicit -warm always wins;
// otherwise each mode gets its light default (heavy warming would
// consume a whole measured run of the short-trace modes), and
// unsaturated DSS cell runs get the scale-dependent completion default.
func (o *Options) Cell() (core.Cell, error) {
	camp, err := o.CampKind()
	if err != nil {
		return core.Cell{}, err
	}
	wk, err := o.WorkloadKind()
	if err != nil {
		return core.Cell{}, err
	}
	cell := core.DefaultCell(camp, wk, !o.Unsaturated)
	cell.Cores = o.Cores
	cell.L2Size = o.L2MB << 20
	cell.L2Lat = o.L2Lat
	cell.SharedL2 = !o.SMP
	cell.UnsatQuery = o.Query
	cell.WindowCycles = o.Window
	cell.WarmRefs = o.Warm
	if o.Clients > 0 {
		cell.Clients = o.Clients
	}
	if !o.WasSet("warm") {
		if mode, ok := o.Mode(); ok {
			cell.WarmRefs = core.DefaultModeCell(mode, camp).WarmRefs
		} else if o.Unsaturated && wk == core.DSS {
			// Unsaturated DSS runs measure one query to completion; the
			// saturated warming default would consume a whole vectorized
			// test-scale query before measurement starts.
			cell.WarmRefs = 50000
			if o.Scale == "test" {
				cell.WarmRefs = 20000
			}
		}
	}
	return cell, nil
}

// Request builds the unified-API request the mode flags describe.
// Validation of the combination (query numbers, partition counts, remote
// percentage) is core.Request.Validate's job; this only wires flags to
// fields.
func (o *Options) Request() (core.Request, error) {
	mode, ok := o.Mode()
	if !ok {
		return core.Request{}, fmt.Errorf("no executor mode selected (-vec, -share, -workers, or -steps)")
	}
	wk, err := o.WorkloadKind()
	if err != nil {
		return core.Request{}, err
	}
	switch mode {
	case core.ModeStagedOLTP:
		if wk != core.OLTP {
			return core.Request{}, fmt.Errorf("-steps requires -workload oltp (staged transaction execution)")
		}
	default:
		if wk != core.DSS {
			return core.Request{}, fmt.Errorf("-%s requires -workload dss", map[core.Mode]string{
				core.ModeVecDSS: "vec", core.ModeSharedDSS: "share", core.ModeParallelDSS: "workers",
			}[mode])
		}
	}
	cell, err := o.Cell()
	if err != nil {
		return core.Request{}, err
	}
	req := core.Request{Mode: mode, Query: o.Query, Seed: 7, Cell: &cell, Trace: o.TraceOut != "", JoinMode: o.JoinMode}
	switch mode {
	case core.ModeStagedOLTP:
		req.Clients = o.Clients
		req.Txns = o.Txns
		req.Cohort = o.Cohort
		req.Parts = o.Parts
		req.RemotePct = o.Remote
		if o.Parts > 1 {
			req.PartCounts = []int{1, o.Parts}
		}
	case core.ModeSharedDSS:
		req.Clients = o.Clients
		if req.Clients <= 0 {
			req.Clients = 8
		}
	case core.ModeParallelDSS:
		req.Workers = o.Workers
	}
	return req, nil
}
