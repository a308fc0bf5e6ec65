package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/sim"
)

// TestRequestDefaults checks the one-place defaulting contract: a bare
// request resolves to the documented mode defaults, and explicit values
// survive.
func TestRequestDefaults(t *testing.T) {
	q := Request{Mode: ModeStagedOLTP}.WithDefaults()
	if q.Query != 6 || q.Clients != 8 || q.Txns != 8 || q.Cohort != 16 ||
		q.Parts != 1 || q.Seed != 7 {
		t.Fatalf("staged defaults wrong: %+v", q)
	}
	if len(q.PartCounts) != 1 || q.PartCounts[0] != 1 {
		t.Fatalf("PartCounts default wrong: %v", q.PartCounts)
	}
	if q.Cell == nil || q.Cell.WarmRefs != 10000 || q.Cell.Workload != OLTP {
		t.Fatalf("staged default cell wrong: %+v", q.Cell)
	}

	p := Request{Mode: ModeParallelDSS, Workers: 3}.WithDefaults()
	if len(p.WorkerCounts) != 2 || p.WorkerCounts[0] != 1 || p.WorkerCounts[1] != 3 {
		t.Fatalf("WorkerCounts default wrong: %v", p.WorkerCounts)
	}

	// shared-dss keeps query 0: it means the Q1/Q6/Q13 mix there.
	s := Request{Mode: ModeSharedDSS}.WithDefaults()
	if s.Query != 0 {
		t.Fatalf("shared-dss query defaulted to %d, want 0 (the mix)", s.Query)
	}
}

// TestRequestValidation checks that unrunnable requests come back as
// typed *ValidationError values naming the offending field, not as
// panics from deep inside partitioning.
// cellWith is the default vec-dss cell with one edit.
func cellWith(edit func(*Cell)) *Cell {
	c := DefaultModeCell(ModeVecDSS, sim.FatCamp)
	edit(&c)
	return &c
}

func TestRequestValidation(t *testing.T) {
	cases := []struct {
		name  string
		req   Request
		field string
	}{
		{"unknown mode", Request{Mode: "warp-dss"}, "mode"},
		{"bad vec query", Request{Mode: ModeVecDSS, Query: 5}, "query"},
		{"bad shared query", Request{Mode: ModeSharedDSS, Query: 2}, "query"},
		{"negative clients", Request{Mode: ModeSharedDSS, Clients: -1}, "clients"},
		{"negative workers", Request{Mode: ModeParallelDSS, Workers: -2}, "workers"},
		{"zero worker count", Request{Mode: ModeParallelDSS, WorkerCounts: []int{1, 0}}, "workers"},
		{"negative parts", Request{Mode: ModeStagedOLTP, Parts: -1}, "parts"},
		{"negative part count", Request{Mode: ModeStagedOLTP, PartCounts: []int{1, -2}}, "parts"},
		{"too many clients", Request{Mode: ModeStagedOLTP, Clients: 1e9}, "clients"},
		{"too many shared clients", Request{Mode: ModeSharedDSS, Clients: maxClients + 1}, "clients"},
		{"too many workers", Request{Mode: ModeParallelDSS, Workers: maxWorkers + 1}, "workers"},
		{"too many workers in the sweep", Request{Mode: ModeParallelDSS, WorkerCounts: []int{1, 100000}}, "workers"},
		{"too many native workers", Request{Mode: ModeVecDSS, NativeWorkers: []int{maxWorkers + 1}}, "native_workers"},
		{"too many parts", Request{Mode: ModeStagedOLTP, Parts: 100000}, "parts"},
		{"too many parts in the sweep", Request{Mode: ModeStagedOLTP, PartCounts: []int{1, maxParts + 1}}, "parts"},
		{"too many txns", Request{Mode: ModeStagedOLTP, Txns: maxTxns + 1}, "txns"},
		{"cohort too wide", Request{Mode: ModeStagedOLTP, Cohort: maxCohort + 1}, "cohort"},
		{"remote over 100", Request{Mode: ModeStagedOLTP, RemotePct: 101}, "remote"},
		{"remote negative", Request{Mode: ModeStagedOLTP, RemotePct: -5}, "remote"},
		{"negative L2", Request{Mode: ModeVecDSS, Cell: cellWith(func(c *Cell) { c.L2Size = -1 << 20 })}, "cell"},
		{"L2 below one set", Request{Mode: ModeVecDSS, Cell: cellWith(func(c *Cell) { c.L2Size = 256 })}, "cell"},
		{"negative cores", Request{Mode: ModeVecDSS, Cell: cellWith(func(c *Cell) { c.Cores = -2 })}, "cell"},
		{"negative contexts", Request{Mode: ModeSharedDSS, Cell: cellWith(func(c *Cell) { c.Camp, c.CtxPerCore = sim.LeanCamp, -1 })}, "cell"},
		{"negative ports", Request{Mode: ModeStagedOLTP, Cell: cellWith(func(c *Cell) { c.L2Ports = -1 })}, "cell"},
		{"negative L2 latency", Request{Mode: ModeParallelDSS, Cell: cellWith(func(c *Cell) { c.L2Lat = -3 })}, "cell"},
		{"unknown camp", Request{Mode: ModeVecDSS, Cell: cellWith(func(c *Cell) { c.Camp = 9 })}, "cell"},
	}
	for _, tc := range cases {
		err := tc.req.WithDefaults().Validate()
		var ve *ValidationError
		if !errors.As(err, &ve) {
			t.Errorf("%s: got %v, want *ValidationError", tc.name, err)
			continue
		}
		if ve.Field != tc.field {
			t.Errorf("%s: field %q, want %q (%v)", tc.name, ve.Field, tc.field, err)
		}
	}
	if err := (Request{Mode: ModeVecDSS}).WithDefaults().Validate(); err != nil {
		t.Fatalf("default vec request rejected: %v", err)
	}
	// The bounds admit their own limits, and the widest sweep the
	// repository defines.
	atLimit := Request{Mode: ModeStagedOLTP, Clients: maxClients, Txns: maxTxns, Cohort: maxCohort, Parts: maxParts}
	if err := atLimit.WithDefaults().Validate(); err != nil {
		t.Errorf("request at the limits rejected: %v", err)
	}
	sweep := defaultPartitionSweep()
	widest := Request{Mode: ModeStagedOLTP, Clients: sweep.opts.Clients, Txns: sweep.opts.PerClient,
		Cohort: sweep.opts.Cohort, PartCounts: sweep.parts}
	if err := widest.WithDefaults().Validate(); err != nil {
		t.Errorf("defaultPartitionSweep rejected: %v", err)
	}
	// Zero cell fields are defaults, and the smallest buildable L2 builds.
	smallest := Request{Mode: ModeVecDSS, Cell: cellWith(func(c *Cell) { c.Cores, c.CtxPerCore, c.L2Ports, c.L2Size = 0, 0, 0, 512 })}
	if err := smallest.WithDefaults().Validate(); err != nil {
		t.Errorf("cell of defaults and a one-set L2 rejected: %v", err)
	} else {
		sim.NewChip(smallest.Cell.SimConfig())
	}
	if _, err := sharedRunner.Run(context.Background(), Request{Mode: ModeStagedOLTP, Parts: -1}); err == nil {
		t.Fatal("Run accepted parts=-1")
	}
}

// TestStagedOptsValidate checks the option-block validation the request
// path shares with direct RunStagedOLTP callers.
func TestStagedOptsValidate(t *testing.T) {
	if err := (StagedOLTPOpts{}).WithDefaults().Validate(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	// WithDefaults must leave negatives alone for Validate to see.
	o := StagedOLTPOpts{Parts: -3}.WithDefaults()
	if o.Parts != -3 {
		t.Fatalf("WithDefaults rewrote Parts=-3 to %d", o.Parts)
	}
	var ve *ValidationError
	if err := o.Validate(); !errors.As(err, &ve) || ve.Field != "parts" {
		t.Fatalf("Parts=-3: got %v", err)
	}
	if err := (StagedOLTPOpts{RemotePct: 200}).WithDefaults().Validate(); !errors.As(err, &ve) || ve.Field != "remote" {
		t.Fatal("RemotePct=200 accepted")
	}
	if _, err := sharedRunner.RunStagedOLTP(DefaultModeCell(ModeStagedOLTP, sim.FatCamp), true, StagedOLTPOpts{Cohort: -1}); err == nil {
		t.Fatal("RunStagedOLTP accepted Cohort=-1")
	}
}

// TestRunVecGolden checks that the unified entry point reproduces the
// legacy vec-dss execution byte-for-byte: same result rows, same typed
// row digests — and, the serial simulation being deterministic, same
// cycles — as direct RunVecDSS calls on the same cell.
func TestRunVecGolden(t *testing.T) {
	cell := DefaultModeCell(ModeVecDSS, sim.FatCamp)
	res, err := sharedRunner.Run(context.Background(), Request{Mode: ModeVecDSS, Query: 6, Cell: &cell})
	if err != nil {
		t.Fatal(err)
	}
	row, err := sharedRunner.RunVecDSS(cell, 6, false, 7)
	if err != nil {
		t.Fatal(err)
	}
	vec, err := sharedRunner.RunVecDSS(cell, 6, true, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline.Digest != row.Digest || res.Baseline.Rows != row.Rows {
		t.Errorf("baseline digest %#x (%d rows) vs legacy row %#x (%d rows)",
			res.Baseline.Digest, res.Baseline.Rows, row.Digest, row.Rows)
	}
	if res.Main.Digest != vec.Digest || res.Main.Rows != vec.Rows {
		t.Errorf("main digest %#x (%d rows) vs legacy vec %#x (%d rows)",
			res.Main.Digest, res.Main.Rows, vec.Digest, vec.Rows)
	}
	if res.Baseline.Cycles != row.Cycles || res.Main.Cycles != vec.Cycles {
		t.Errorf("cycles %d/%d vs legacy %d/%d", res.Baseline.Cycles, res.Main.Cycles, row.Cycles, vec.Cycles)
	}
	if res.Digest != res.Main.Digest {
		t.Errorf("Result.Digest %#x != Main.Digest %#x", res.Digest, res.Main.Digest)
	}
	if res.Baseline.Label != "row" || res.Main.Label != "vectorized" {
		t.Errorf("labels %q/%q", res.Baseline.Label, res.Main.Label)
	}
	t.Logf("q6: row %#x == vec %#x: %v (speedup %.2fx)",
		res.Baseline.Digest, res.Main.Digest, res.Baseline.Digest == res.Main.Digest, res.SpeedupX)
}

// TestRunStagedGolden checks that the unified entry point reproduces
// the legacy staged-oltp execution byte-for-byte: the monolithic and
// cohort digests match a direct RunStagedOLTP pair on the same cell and
// inputs, and the committed-transaction counts agree.
func TestRunStagedGolden(t *testing.T) {
	cell := DefaultModeCell(ModeStagedOLTP, sim.FatCamp)
	cell.StreamBuf = false
	req := Request{Mode: ModeStagedOLTP, Clients: 6, Txns: 4, Cell: &cell}
	res, err := sharedRunner.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	opts := StagedOLTPOpts{Clients: 6, PerClient: 4}
	mono, err := sharedRunner.RunStagedOLTP(cell, false, opts)
	if err != nil {
		t.Fatal(err)
	}
	coh, err := sharedRunner.RunStagedOLTP(cell, true, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline.Digest != mono.Digest {
		t.Errorf("baseline digest %#x vs legacy monolithic %#x", res.Baseline.Digest, mono.Digest)
	}
	if res.Main.Digest != coh.Digest {
		t.Errorf("main digest %#x vs legacy cohort %#x", res.Main.Digest, coh.Digest)
	}
	if res.Main.Digest != res.Baseline.Digest {
		t.Error("Run returned without enforcing digest identity")
	}
	want := 6 * 4
	if res.Baseline.Txns != want || res.Main.Txns != want {
		t.Errorf("committed %d/%d, want %d", res.Baseline.Txns, res.Main.Txns, want)
	}
	// The simulated measurement itself is deterministic for the staged
	// pair (one traced worker, deterministic inputs): the unified path
	// must report the same cycles and misses the legacy path measured.
	if res.Baseline.Cycles != mono.Cycles {
		t.Errorf("baseline cycles %d vs legacy %d", res.Baseline.Cycles, mono.Cycles)
	}
	if res.Main.Cycles != coh.Cycles {
		t.Errorf("main cycles %d vs legacy %d", res.Main.Cycles, coh.Cycles)
	}
	if res.Main.Sched != coh.Sched {
		t.Errorf("scheduler stats %+v vs legacy %+v", res.Main.Sched, coh.Sched)
	}
}

// TestRunSharedGolden checks that the unified entry point reproduces
// the legacy shared-dss execution: the unshared baseline's combined
// per-client digest matches a direct RunSharedDSSTraced call (unshared runs
// are deterministic: fixed phases, fixed seeds), and both sides of the
// pair return the same row counts. The shared side's digest is not
// compared across modes — consumers attach to the circular scan
// mid-rotation, so float aggregates accumulate in a different order.
func TestRunSharedGolden(t *testing.T) {
	cell := DefaultModeCell(ModeSharedDSS, sim.FatCamp)
	res, err := sharedRunner.Run(context.Background(), Request{Mode: ModeSharedDSS, Query: 6, Clients: 3, Cell: &cell})
	if err != nil {
		t.Fatal(err)
	}
	un, err := sharedRunner.RunSharedDSSTraced(cell, 6, 3, false, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline.Digest != un.Digest || res.Baseline.Rows != un.Rows {
		t.Errorf("baseline digest %#x (%d rows) vs legacy unshared %#x (%d rows)",
			res.Baseline.Digest, res.Baseline.Rows, un.Digest, un.Rows)
	}
	if res.Baseline.Rows != res.Main.Rows {
		t.Errorf("unshared rows %d != shared rows %d", res.Baseline.Rows, res.Main.Rows)
	}
	if res.Main.Scans.Attaches == 0 {
		t.Error("shared side recorded no scan attaches")
	}
}

// TestRunCancelled checks that a dead context stops every mode before its
// first side: the request fails with context.Canceled and the Runner has
// not so much as built a database to simulate against.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mode := range []Mode{ModeVecDSS, ModeSharedDSS, ModeParallelDSS, ModeStagedOLTP} {
		r := NewRunner(TestScale())
		if _, err := r.Run(ctx, Request{Mode: mode}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: got %v, want context.Canceled", mode, err)
		}
		if r.tpch != nil || r.tpcc != nil || r.master != nil || len(r.arenas.free) != 0 {
			t.Errorf("%s: a cancelled request built a database or took an arena", mode)
		}
	}
}
