// Package core is the paper's characterization framework: the camp
// taxonomy (Table 1), the experiment cells that pair a chip configuration
// with a database workload, and one experiment definition per table and
// figure of the evaluation.
package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cacti"
	"repro/internal/mem"
	"repro/internal/sim"
)

// CampSpec describes one camp's core technology (Table 1).
type CampSpec struct {
	Camp          sim.Camp
	IssueWidth    string
	ExecOrder     string
	PipelineDepth string
	HWThreads     string
	CoreSize      string
}

// Camps is the paper's Table 1.
var Camps = []CampSpec{
	{sim.FatCamp, "Wide (4+)", "Out-of-order", "Deep (14+ stages)", "Few (1-2)", "Large (3 x LC size)"},
	{sim.LeanCamp, "Narrow (1 or 2)", "In-order", "Shallow (5-6 stages)", "Many (4+)", "Small (LC size)"},
}

// WorkloadKind selects OLTP (TPC-C-like) or DSS (TPC-H-like).
type WorkloadKind uint8

// Workload kinds.
const (
	OLTP WorkloadKind = iota
	DSS
)

func (k WorkloadKind) String() string {
	if k == OLTP {
		return "OLTP"
	}
	return "DSS"
}

// Cell is one experiment configuration: a chip and a workload binding.
type Cell struct {
	Camp      sim.Camp
	Workload  WorkloadKind
	Saturated bool

	Cores      int // default 4
	CtxPerCore int // LC hardware contexts per core (0 = default 4)
	Clients    int // default: paper's 64 OLTP / 16 DSS saturated, 1 unsaturated

	L2Size   int  // bytes (default 26 MB, the paper's baseline)
	L2Lat    int  // cycles; 0 = use the Cacti model
	SharedL2 bool // default true (CMP); false = SMP private L2s

	L2Ports   int  // 0 = default
	StreamBuf bool // instruction stream buffers (default on via DefaultCell)

	WarmRefs     int    // functional-warming refs per thread
	WindowCycles uint64 // measured window (saturated)
	UnsatQuery   int    // DSS unsaturated: which query analog to run
	UnsatTxns    int    // OLTP unsaturated: transactions to time

	// RowPlans pins DSS clients to the row-at-a-time reference operators
	// instead of the vectorized executor: validation cells whose analytic
	// models assume per-tuple blocking access, and the row side of
	// vectorized-speedup comparisons, set it.
	RowPlans bool
}

// DefaultCell fills a cell with the paper's baseline parameters.
func DefaultCell(camp sim.Camp, wk WorkloadKind, saturated bool) Cell {
	c := Cell{
		Camp: camp, Workload: wk, Saturated: saturated,
		Cores: 4, L2Size: 26 << 20, SharedL2: true, StreamBuf: true,
		WarmRefs: 400000, WindowCycles: 400000,
		UnsatQuery: 6, UnsatTxns: 64,
	}
	if saturated {
		if wk == OLTP {
			c.Clients = 64
		} else {
			c.Clients = 16
		}
	} else {
		c.Clients = 1
		c.WarmRefs = 150000
		c.UnsatTxns = 160
	}
	return c
}

// validate rejects, with a *ValidationError naming "cell", a geometry no
// chip can be built from: SimConfig, cache.NewHierarchy and sim.NewChipOn
// panic on these, because between them and a caller stands this check. Zero
// fields are the defaults SimConfig and the simulator fill in.
func (c Cell) validate() error {
	bad := func(format string, args ...any) error {
		return &ValidationError{Field: "cell", Reason: fmt.Sprintf(format, args...)}
	}
	// One set of the L2 at the associativity every cell uses.
	oneSet := cache.Config{}.WithDefaults().L2Assoc * mem.LineSize
	switch {
	case c.Camp != sim.FatCamp && c.Camp != sim.LeanCamp:
		return bad("unknown camp %d", c.Camp)
	case c.Cores < 0:
		return bad("%d cores (need at least 1, or 0 for the default)", c.Cores)
	case c.CtxPerCore < 0:
		return bad("%d contexts per core (need at least 1, or 0 for the default)", c.CtxPerCore)
	case c.L2Size < oneSet:
		return bad("L2 of %d bytes (need at least one set, %d bytes)", c.L2Size, oneSet)
	case c.L2Lat < 0:
		return bad("L2 latency of %d cycles (need at least 1, or 0 for the Cacti model)", c.L2Lat)
	case c.L2Ports < 0:
		return bad("%d L2 ports (need at least 1, or 0 for the default)", c.L2Ports)
	}
	return nil
}

// SimConfig materializes the chip configuration for the cell, deriving
// the L2 latency from the Cacti model unless pinned.
func (c Cell) SimConfig() sim.Config {
	lat := c.L2Lat
	if lat == 0 {
		lat = cacti.Latency(c.L2Size)
	}
	return sim.Config{
		Camp:       c.Camp,
		Cores:      c.Cores,
		CtxPerCore: c.CtxPerCore,
		Hier: cache.Config{
			L2Size:    c.L2Size,
			L2Lat:     lat,
			SharedL2:  c.SharedL2,
			L2Ports:   c.L2Ports,
			StreamBuf: c.StreamBuf,
		},
	}
}

func (c Cell) String() string {
	sat := "unsat"
	if c.Saturated {
		sat = "sat"
	}
	mode := "CMP"
	if !c.SharedL2 {
		mode = "SMP"
	}
	return fmt.Sprintf("%v/%v/%s %dcores %dMB %s", c.Camp, c.Workload, sat, c.Cores, c.L2Size>>20, mode)
}

// CellResult is a cell's measurement.
type CellResult struct {
	Cell   Cell
	Result sim.Result

	// Throughput is aggregate IPC (saturated cells).
	Throughput float64
	// ResponseCycles is cycles per unit of work: per query (DSS) or per
	// transaction (OLTP) for unsaturated cells.
	ResponseCycles float64
	// Work completed during the measurement (transactions or queries).
	Work int
}

// FracBreakdown returns the execution-time fractions in the paper's
// Figure 5 ordering: computation, I-stalls, D-stalls, other.
func (r CellResult) FracBreakdown() (comp, istall, dstall, other float64) {
	b := r.Result.Breakdown
	busy := float64(b.Busy())
	if busy == 0 {
		return 0, 0, 0, 0
	}
	return float64(b.Computation()) / busy,
		float64(b.IStalls()) / busy,
		float64(b.DStalls()) / busy,
		float64(b.Other()) / busy
}
