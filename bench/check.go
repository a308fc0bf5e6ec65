package main

import (
	"fmt"

	"repro/internal/server/api"
)

// observed is what one operation returned that can be checked.
type observed struct {
	digest, baseDigest     uint64
	rows                   int
	baseCycles, mainCycles uint64
}

// expect is the correctness contract of one request (an operation kind
// at one seed of its pool). A golden comes from an independent
// execution of the same inputs; everything else is checked against the
// request's first observation, because the same request must return the
// same answer every time it is sent.
type expect struct {
	// digest, when set, is the golden the main digest must equal.
	digest *uint64
	// rows, when >= 0, is the golden main-side result row count.
	rows int
	// sidesEqual requires baseline and main digests to agree: both
	// executors of a pair must produce byte-identical output.
	sidesEqual bool
	// mainDigestVaries exempts the main digest from repeating
	// (shared-dss: a consumer attaches wherever the circular scan is, so
	// float sums differ in low bits; only the unshared side repeats).
	mainDigestVaries bool
	// cyclesRepeat requires both sides' simulated cycles to repeat
	// exactly: the simulator is deterministic for these traces.
	cyclesRepeat bool

	first *observed
}

// check returns nil when o honours the contract; any mismatch makes the
// operation a failed one.
func (e *expect) check(o observed) error {
	if e.digest != nil && o.digest != *e.digest {
		return fmt.Errorf("digest %#x, golden %#x", o.digest, *e.digest)
	}
	if e.rows >= 0 && o.rows != e.rows {
		return fmt.Errorf("%d result rows, golden %d", o.rows, e.rows)
	}
	if e.sidesEqual && o.baseDigest != o.digest {
		return fmt.Errorf("baseline digest %#x differs from main %#x", o.baseDigest, o.digest)
	}
	if e.first == nil {
		f := o
		e.first = &f
		return nil
	}
	if o.baseDigest != e.first.baseDigest {
		return fmt.Errorf("baseline digest %#x, first seen %#x", o.baseDigest, e.first.baseDigest)
	}
	if !e.mainDigestVaries && o.digest != e.first.digest {
		return fmt.Errorf("digest %#x, first seen %#x", o.digest, e.first.digest)
	}
	if e.cyclesRepeat && (o.baseCycles != e.first.baseCycles || o.mainCycles != e.first.mainCycles) {
		return fmt.Errorf("simulated cycles %d/%d, first seen %d/%d",
			o.baseCycles, o.mainCycles, e.first.baseCycles, e.first.mainCycles)
	}
	return nil
}

// observeResult extracts the checkable fields of a served result.
func observeResult(res api.Result) (observed, error) {
	d, err := api.ParseDigest(res.Digest)
	if err != nil {
		return observed{}, fmt.Errorf("result digest %q: %w", res.Digest, err)
	}
	bd, err := api.ParseDigest(res.Baseline.Digest)
	if err != nil {
		return observed{}, fmt.Errorf("baseline digest %q: %w", res.Baseline.Digest, err)
	}
	return observed{
		digest: d, baseDigest: bd, rows: res.Main.Rows,
		baseCycles: res.Baseline.Cycles, mainCycles: res.Main.Cycles,
	}, nil
}
