package main

// manifest is BENCHMARK.json as the code defines it. The file at the
// repository root is this value printed (bench -manifest), and a unit
// test keeps the two identical, so a metric cannot be renamed in one
// place only.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []metricDef        `json:"end_to_end"`
	PerLayer   []layerDef         `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func buildManifest() manifest {
	m := manifest{
		// run.sh builds the benchmark from source into .bench_build/ of
		// the checkout (Go caches included) and executes it.
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: w.name, Why: w.why})
	}
	return m
}
