// Placement of a request's sides on the host: which of the simulations a
// request consists of run beside one another, and how a side that panics is
// named. Runner.Run's doc comment states the rule callers may rely on.

package core

import (
	"context"
	"errors"
	"runtime"

	"repro/internal/par"
)

// side is one simulation of a request.
type side struct {
	// label names the side in errors: the Side.Label it will carry.
	label string
	// hostPaced marks a side whose producers divide work among themselves
	// in host time — a cohort side at parts > 1 is the only kind — so that
	// its cycles move with what else the host runs. Nothing of the request
	// runs beside it.
	hostPaced bool
	run       func() (Side, error)
}

// labelPanic names the panic err holds, if it holds one, after label: the
// side or run it failed. A name given nearer to the panic stands.
func labelPanic(err error, label string) {
	var pe *par.PanicError
	if errors.As(err, &pe) && pe.Label == "" {
		pe.Label = label
	}
}

// overlapSides reports whether a request of mode may run two sides at once:
// the host has a processor for the second, and what both run against is
// resident. A request that still has to load the database (or the TPC-C
// image) has both sides waiting for that load, and the second would take
// arenas of its own for the wait; it runs as it would on one processor.
func (r *Runner) overlapSides(mode Mode) bool {
	if runtime.GOMAXPROCS(0) < 2 {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if mode == ModeStagedOLTP {
		return r.master != nil
	}
	return r.tpch != nil
}

// runSides runs the sides of one request of mode and returns what they
// measured in side order, or the first error in side order; a side's panic
// comes back as a *par.PanicError labelled with the side. Two consecutive
// sides that are not host-paced run together through par.Do when
// overlapSides allows; every other side runs alone on the caller's
// goroutine. ctx is checked before each start.
func (r *Runner) runSides(ctx context.Context, mode Mode, sides ...side) ([]Side, error) {
	overlap := r.overlapSides(mode)
	out := make([]Side, len(sides))
	for i := 0; i < len(sides); {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := 1
		if overlap && i+1 < len(sides) && !sides[i].hostPaced && !sides[i+1].hostPaced {
			n = 2
			r.Sides.Overlapped.Add(2)
		} else {
			r.Sides.Sequential.Inc()
		}
		if err := par.Do(n, func(k int) (err error) {
			out[i+k], err = sides[i+k].run()
			return err
		}, func(k int, err error) { labelPanic(err, sides[i+k].label) }); err != nil {
			return nil, err
		}
		i += n
	}
	return out, nil
}
