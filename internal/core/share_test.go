package core

import (
	"testing"

	"repro/internal/sim"
)

// TestSharedDSSModes runs the work-sharing comparison at a small scale:
// both modes complete all queries, and sharing never loses to private
// scans on a scan-heavy query.
func TestSharedDSSModes(t *testing.T) {
	r := NewRunner(TestScale())
	cell := DefaultCell(sim.FatCamp, DSS, true)
	cell.WarmRefs = 20000
	const clients = 4

	un, err := r.RunSharedDSSTraced(cell, 6, clients, false, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := r.RunSharedDSSTraced(cell, 6, clients, true, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if un.Rows == 0 || sh.Rows == 0 {
		t.Fatalf("empty results: unshared %d rows, shared %d rows", un.Rows, sh.Rows)
	}
	if sh.Scans.Rotations != clients {
		t.Fatalf("shared run completed %d rotations, want %d", sh.Scans.Rotations, clients)
	}
	if un.Cycles == 0 || sh.Cycles == 0 {
		t.Fatal("zero-cycle measurement")
	}
	// Before PR 3 the gate here was 1.5x: shared consumers ran a
	// vectorized filter while private scans decoded row-at-a-time, so
	// most of the "sharing" win was really a vectorization win. Now that
	// every scan is vectorized, the private baseline is ~5x faster and
	// sharing's remaining edge — one decode pass plus store-free
	// consumers — is ~1.15x at this cache-resident test scale. Gate that
	// sharing never loses.
	ratio := float64(un.Cycles) / float64(sh.Cycles)
	if ratio < 1.05 {
		t.Fatalf("shared mode only %.2fx unshared aggregate throughput (cycles %d vs %d)",
			ratio, un.Cycles, sh.Cycles)
	}
	t.Logf("q6 x%d clients: unshared %d cycles, shared %d cycles (%.2fx)", clients, un.Cycles, sh.Cycles, ratio)
}

// TestSharedDSSMix exercises the Q1/Q6/Q13 mix (both shared tables get
// producer threads) on the simulated chip.
func TestSharedDSSMix(t *testing.T) {
	if testing.Short() {
		t.Skip("mixed-query simulation is slow")
	}
	r := NewRunner(TestScale())
	cell := DefaultCell(sim.FatCamp, DSS, true)
	cell.WarmRefs = 20000
	res, err := r.RunSharedDSSTraced(cell, 0, 3, true, 11, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows == 0 || res.Scans.Rotations == 0 {
		t.Fatalf("mix run: %+v", res)
	}
}
