// Command figures regenerates every table and figure of the paper's
// evaluation as text tables.
//
// Usage:
//
//	figures [-exp all|table1|fig1|fig2|fig3|fig4|fig5|fig6|fig7|fig8|staged] [-scale full|test]
//
// Absolute numbers come from the reproduction's simulator and scaled-down
// datasets; the shapes (who wins, by what factor, where crossovers fall)
// are the reproduction targets. Each table's header names the paper's
// table or figure it regenerates.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, table1, fig1..fig8, staged)")
	scale := flag.String("scale", "full", "workload scale: full or test")
	flag.Parse()

	var sc core.Scale
	switch *scale {
	case "full":
		sc = core.FullScale()
	case "test":
		sc = core.TestScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	r := core.NewRunner(sc)

	all := map[string]func(*core.Runner) error{
		"table1": table1, "fig1": fig1, "fig2": fig2, "fig3": fig3,
		"fig4": fig4, "fig5": fig5, "fig6": fig6, "fig7": fig7,
		"fig8": fig8, "staged": stagedExp,
	}
	order := []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "staged"}

	run := func(name string) {
		fn, ok := all[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
		start := time.Now()
		if err := fn(r); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("  [%s in %s, peak RSS %d MB]\n\n", name, time.Since(start).Truncate(time.Millisecond), peakRSSMB())
	}

	if *exp == "all" {
		for _, name := range order {
			run(name)
		}
		return
	}
	run(*exp)
}

// peakRSSMB is the process's peak resident set so far, in MB (0 where
// getrusage fails).
func peakRSSMB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return int64(ru.Maxrss) >> 10 // Maxrss is in KB on Linux
}

func header(title string) {
	fmt.Println(title)
	fmt.Println(strings.Repeat("-", len(title)))
}

func table1(*core.Runner) error {
	header("Table 1: chip multiprocessor camp characteristics")
	fmt.Printf("%-18s %-18s %-18s\n", "Core Technology", "Fat Camp (FC)", "Lean Camp (LC)")
	rows := []struct {
		name string
		get  func(core.CampSpec) string
	}{
		{"Issue Width", func(c core.CampSpec) string { return c.IssueWidth }},
		{"Execution Order", func(c core.CampSpec) string { return c.ExecOrder }},
		{"Pipeline Depth", func(c core.CampSpec) string { return c.PipelineDepth }},
		{"Hardware Threads", func(c core.CampSpec) string { return c.HWThreads }},
		{"Core Size", func(c core.CampSpec) string { return c.CoreSize }},
	}
	for _, row := range rows {
		fmt.Printf("%-18s %-18s %-18s\n", row.name, row.get(core.Camps[0]), row.get(core.Camps[1]))
	}
	return nil
}

func fig1(*core.Runner) error {
	header("Figure 1a: historic on-chip cache sizes")
	fmt.Printf("%-6s %-28s %10s %8s\n", "Year", "Processor", "Cache KB", "Hit cyc")
	for _, h := range core.Historic {
		lat := "-"
		if h.HitCycles > 0 {
			lat = fmt.Sprintf("%d", h.HitCycles)
		}
		fmt.Printf("%-6d %-28s %10d %8s\n", h.Year, h.Processor, h.CacheKB, lat)
	}
	fmt.Println()
	header("Figure 1b: Cacti-model latency vs size (physical trend)")
	pts, err := core.CactiCurve()
	if err != nil {
		return err
	}
	fmt.Printf("%10s %8s %10s %10s\n", "Size KB", "Cycles", "Area mm2", "Leak mW")
	for _, p := range pts {
		fmt.Printf("%10d %8d %10.1f %10.0f\n", p.SizeKB, p.Cycles, p.Area, p.Leakage)
	}
	return nil
}

func fig2(r *core.Runner) error {
	header("Figure 2: throughput vs concurrent clients (DSS on FC CMP)")
	pts, err := r.Figure2(nil)
	if err != nil {
		return err
	}
	base := pts[0].Throughput
	fmt.Printf("%8s %12s %12s\n", "Clients", "IPC", "Norm")
	for _, p := range pts {
		fmt.Printf("%8d %12.3f %12.2f\n", p.Clients, p.Throughput, p.Throughput/base)
	}
	return nil
}

func fig3(r *core.Runner) error {
	header("Figure 3: simulator validation (timing sim vs analytical CPI)")
	v, err := r.Figure3()
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %10s %10s\n", "Component", "Simulated", "Analytic")
	fmt.Printf("%-12s %10.3f %10.3f\n", "Computation", v.Simulated.Computation, v.Analytic.Computation)
	fmt.Printf("%-12s %10.3f %10.3f\n", "I-stalls", v.Simulated.IStalls, v.Analytic.IStalls)
	fmt.Printf("%-12s %10.3f %10.3f\n", "D-stalls", v.Simulated.DStalls, v.Analytic.DStalls)
	fmt.Printf("%-12s %10.3f %10.3f\n", "Other", v.Simulated.Other, v.Analytic.Other)
	fmt.Printf("%-12s %10.3f %10.3f   (error %.1f%%; paper reports <5%% vs hardware)\n",
		"Total CPI", v.Simulated.Total, v.Analytic.Total, v.ErrPct)
	return nil
}

func fig4(r *core.Runner) error {
	header("Figure 4: LC normalized to FC")
	res, err := r.Figure4()
	if err != nil {
		return err
	}
	fmt.Printf("(a) response time, unsaturated:   OLTP %.2fx   DSS %.2fx   (paper: ~1.12x, up to 1.7x)\n",
		res.UnsatOLTP, res.UnsatDSS)
	fmt.Printf("(b) throughput, saturated:        OLTP %.2fx   DSS %.2fx   (paper: ~1.7x)\n",
		res.SatOLTP, res.SatDSS)
	return nil
}

func fig5(r *core.Runner) error {
	header("Figure 5: execution time breakdown (26MB shared L2)")
	cells, err := r.Figure5()
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %-6s %-6s %8s %8s %8s %8s %10s\n",
		"Saturation", "Wkld", "Camp", "Comp", "I-stall", "D-stall", "Other", "IPC")
	for _, c := range cells {
		comp, is, ds, oth := c.FracBreakdown()
		sat := "unsat"
		if c.Cell.Saturated {
			sat = "sat"
		}
		fmt.Printf("%-10s %-6v %-6v %7.0f%% %7.0f%% %7.0f%% %7.0f%% %10.2f\n",
			sat, c.Cell.Workload, c.Cell.Camp, comp*100, is*100, ds*100, oth*100, c.Throughput)
	}
	return nil
}

func fig6(r *core.Runner) error {
	for _, wk := range []core.WorkloadKind{core.OLTP, core.DSS} {
		header(fmt.Sprintf("Figure 6: L2 size sweep, %v on FC CMP (const 4-cycle vs Cacti latency)", wk))
		pts, err := r.Figure6(wk, nil)
		if err != nil {
			return err
		}
		fmt.Printf("%6s %8s %12s %12s %10s %10s %10s\n",
			"L2 MB", "lat cyc", "IPC const", "IPC real", "CPI total", "CPI D", "CPI L2hit")
		for _, p := range pts {
			fmt.Printf("%6d %8d %12.3f %12.3f %10.3f %10.3f %10.3f\n",
				p.L2MB, p.LatReal, p.ThroughputConst, p.ThroughputReal,
				p.CPITotal, p.CPIDStall, p.CPIL2Hit)
		}
		fmt.Println()
	}
	return nil
}

func fig7(r *core.Runner) error {
	header("Figure 7: SMP (4x private 4MB L2) vs CMP (shared 16MB L2), FC, saturated")
	fmt.Printf("%-6s %10s %10s %14s %16s\n", "Wkld", "CPI SMP", "CPI CMP", "SMP coh CPI", "L2hit CPI ratio")
	for _, wk := range []core.WorkloadKind{core.OLTP, core.DSS} {
		res, err := r.Figure7(wk)
		if err != nil {
			return err
		}
		fmt.Printf("%-6v %10.3f %10.3f %14.3f %15.1fx\n",
			wk, res.CPISMP, res.CPICMP, res.CoherenceCPISMP, res.L2HitCPIRatio)
	}
	fmt.Println("(paper: CPI 1.40->1.01 OLTP, 1.95->1.46 DSS; L2-hit component grows ~7x)")
	return nil
}

func fig8(r *core.Runner) error {
	header("Figure 8: throughput vs core count (16MB shared L2, FC, saturated)")
	for _, wk := range []core.WorkloadKind{core.OLTP, core.DSS} {
		pts, err := r.Figure8(wk, nil)
		if err != nil {
			return err
		}
		fmt.Printf("%v:\n%8s %12s %10s %10s %12s %14s\n",
			wk, "Cores", "IPC", "Speedup", "Linear", "L2 miss%", "Queue cycles")
		for _, p := range pts {
			fmt.Printf("%8d %12.3f %10.2f %10d %11.2f%% %14d\n",
				p.Cores, p.Throughput, p.Speedup, p.Cores, p.L2MissRate*100, p.QueueCycles)
		}
	}
	return nil
}

func stagedExp(r *core.Runner) error {
	header("Section 6: staged execution (scan->filter->aggregate over lineitem)")
	res, err := r.StagedExperiment(0)
	if err != nil {
		return err
	}
	fmt.Printf("%-18s %12s %8s %8s %10s %10s\n",
		"Mode", "Cycles", "Comp", "I-stall", "L2hit D", "L1D hit%")
	for _, m := range res {
		fmt.Printf("%-18s %12d %7.0f%% %7.0f%% %9.1f%% %9.1f%%\n",
			m.Mode, m.Cycles, m.CompFrac*100, m.IStallFrac*100,
			m.DStallL2Frac*100, m.L1DHitRate*100)
	}
	fmt.Println("(volcano/affinity: one context; parallel: three FC cores; colocated: three contexts of one LC core)")
	return nil
}
