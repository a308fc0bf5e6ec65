// The one simulation lifecycle every experiment runs: bind traced threads
// to a chip, warm its caches, measure a window, tear the threads down, and
// hand what the run held back to the Runner's free lists.

package core

import (
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/trace"
)

// threads are the trace pipes of a run's simulated threads: thread i
// records into recs[i] and the chip reads streams[i].
type threads struct {
	recs    []*trace.Recorder
	streams []*trace.Stream
	inline  bool
}

// newThreads returns n pipes: trace.Pipe ones, or with inline set (n must
// be 1) a trace.Inline one, whose producer runs as a coroutine of the
// simulator.
func newThreads(n int, inline bool) threads {
	th := threads{recs: make([]*trace.Recorder, n), streams: make([]*trace.Stream, n), inline: inline}
	for i := range th.recs {
		if inline {
			th.recs[i], th.streams[i] = trace.Inline()
		} else {
			th.recs[i], th.streams[i] = trace.Pipe()
		}
	}
	return th
}

// run describes one simulation to simulate.
type run struct {
	// label names the run: its Side, the root span of its trace, and the
	// side of a *PanicError.
	label string
	cell  Cell
	threads
	// at, when set, places thread i on hardware context at[i] instead of
	// round-robin.
	at []int
	// produce records every thread's trace, opening its spans under sc
	// (disabled unless traced), and returns what failed. An inline thread
	// runs it as its coroutine; otherwise it runs on a goroutine of its own,
	// and every recorder is closed when it returns.
	produce func(sc obs.Scope) error
	// warm is the warming budget per thread when the cell sets none; with
	// warmSplit > 1 it is divided among that many threads, so that the
	// total is the same at every partition count.
	warm, warmSplit int
	// window bounds the measurement; 0 runs every thread to completion.
	window uint64
	// done is how many threads, from thread 0, the run's completion cycle
	// waits for (sim.Result.Completion).
	done int
	// work is what the producers run in, parked once they are done.
	work   []*engine.Ctx
	traced bool
}

// simulate runs s on a chip from the hierarchy pool and returns a Side
// carrying its label, completion cycle, sim.Result and, when traced, its
// span run, whose root span covers [0, Cycles]. The chip runs on the
// caller's goroutine and a goroutine producer beside it, both through
// par.Do. After the simulation every stream is stopped before any is
// drained (a producer released from one stream may wait at a barrier for a
// peer still blocked on another); the producer is joined, and only then are
// the chip's hierarchy and s.work parked. A run that fails (the producer's
// error, or a panic in the producer, in what it fans out through par, or on
// the chip's side, where an inline producer's panic surfaces) returns the
// error, a panic as a *par.PanicError labelled with the run, and parks
// nothing: what it held goes to the collector. A panic on the chip's side
// stops the streams first, so that the producer ends.
func (r *Runner) simulate(s run) (Side, error) {
	cfg := s.cell.SimConfig().WithDefaults()
	chip := sim.NewChipOn(cfg, r.hiers.take(cfg.Hier.WithDefaults()))
	for i, st := range s.streams {
		if s.at != nil {
			chip.AddThreadAt(st, s.at[i])
		} else {
			chip.AddThread(st)
		}
	}
	var tracer *obs.Tracer
	var root *obs.Span
	if s.traced {
		tracer = obs.NewTracer()
		chip.SetMarkHandler(tracer.OnMark)
		// The root run span is virtual: the chip starts at cycle 0 and the
		// run ends at its completion cycle, so child span totals reconcile
		// against [0, Cycles] exactly.
		root = tracer.BeginAt(0, 0, s.label, "run")
		tracer.StampStart(root, 0)
	}
	sc := obs.Scope{T: tracer, Parent: root.ID()}
	stop := func() {
		for _, st := range s.streams {
			st.Stop()
		}
	}

	var res sim.Result
	var inlineErr error
	calls := 2 // the chip, then the producer
	if s.inline {
		// Run by the drain below to its end.
		s.streams[0].SetProducer(func() { inlineErr = s.produce(sc) })
		calls = 1
	}
	err := par.Do(calls, func(i int) error {
		if i == 1 {
			defer func() {
				for _, rec := range s.recs {
					rec.Close()
				}
			}()
			return s.produce(sc)
		}
		warm := s.cell.WarmRefs
		if warm <= 0 {
			warm = s.warm
		}
		chip.Warm(warm / max(s.warmSplit, 1))
		window := s.window
		if window == 0 {
			window = 1 << 34
		}
		res = chip.Run(window)
		stop()
		for _, st := range s.streams {
			for {
				if _, ok := st.Next(); !ok {
					break
				}
			}
		}
		return inlineErr
	}, func(i int, _ error) {
		if i == 0 {
			stop()
		}
	})
	if err != nil {
		labelPanic(err, s.label)
		return Side{}, err
	}
	r.releaseWork(s.work...)
	r.hiers.put(chip.Hierarchy())

	out := Side{Label: s.label, Cycles: res.Completion(s.done), Result: res}
	if tracer != nil {
		root.EndAt(out.Cycles)
		// Spans whose end markers were lost in the teardown drain close at
		// the run's final cycle, so nothing extends past the root.
		tracer.Finish(out.Cycles)
		run := tracer.Snapshot(s.label, out.Cycles)
		out.Trace = &run
	}
	return out, nil
}
