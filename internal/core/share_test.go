package core

import (
	"context"
	"testing"

	"repro/internal/obs"
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
	req := Request{Mode: ModeSharedDSS, Query: 6, Clients: clients, Cell: &cell}.WithDefaults()

	un, err := r.sharedDSS(req, false)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := r.sharedDSS(req, true)
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
	res, err := r.sharedDSS(Request{Mode: ModeSharedDSS, Query: 0, Clients: 3, Seed: 11, Cell: &cell}.WithDefaults(), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows == 0 || res.Scans.Rotations == 0 {
		t.Fatalf("mix run: %+v", res)
	}
}

// TestSharedDSSHonoursJoinMode: a shared-dss request runs its joins in the
// request's join mode, as the other DSS modes do. The unshared side of a
// Q13 request simulates different cycles under chained and under prefetch,
// and the Runner's join metrics count each mode's builds.
func TestSharedDSSHonoursJoinMode(t *testing.T) {
	r := NewRunner(TestScale())
	r.Join = obs.NewJoinMetrics(obs.NewRegistry())
	cycles := map[string]uint64{}
	for _, mode := range []string{"chained", "prefetch"} {
		res, err := r.Run(context.Background(), Request{Mode: ModeSharedDSS, Query: 13, Clients: 3, JoinMode: mode})
		if err != nil {
			t.Fatal(err)
		}
		cycles[mode] = res.Baseline.Cycles
		if n := r.Join.Builds.With(mode).Value(); n == 0 {
			t.Errorf("%s: no join build counted", mode)
		}
	}
	t.Logf("q13 x3 unshared: chained %d cycles, prefetch %d", cycles["chained"], cycles["prefetch"])
	if cycles["chained"] == cycles["prefetch"] {
		t.Errorf("unshared side: %d cycles under chained and under prefetch; the join mode did not reach it", cycles["chained"])
	}
}
