package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sparse"
	"repro/internal/trace"
)

// residualBound is the largest true relative residual ‖b−A·x‖/‖b‖ an answer
// may have. The solvers stop on the preconditioned recurrence residual at
// rtol 1e-5; the bound leaves a factor of ten for the gap between that
// estimate and the true residual, and rejects any answer that did not solve.
const residualBound = 1e-4

// relResidual recomputes ‖b−A·x‖/‖b‖ on the assembled matrix.
func relResidual(a *sparse.CSR, b, x []float64) float64 {
	ax := make([]float64, a.Rows)
	a.MulVec(ax, x)
	var rr, bb float64
	for i := range b {
		d := b[i] - ax[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	return math.Sqrt(rr / bb)
}

// checkAnswer rejects an x whose true relative residual exceeds the bound.
func checkAnswer(a *sparse.CSR, b, x []float64) error {
	if len(x) != a.Rows {
		return fmt.Errorf("answer has %d entries, want %d", len(x), a.Rows)
	}
	rel := relResidual(a, b, x)
	if !(rel <= residualBound) {
		return fmt.Errorf("true relative residual %.3e exceeds %.0e", rel, residualBound)
	}
	return nil
}

// seededRHS draws op i's right-hand side from the workload seed: the same
// (seed, i) always gives the same vector.
func seededRHS(seed int64, i, n int) []float64 {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	b := make([]float64, n)
	for k := range b {
		b[k] = rng.Float64()*2 - 1
	}
	return b
}

// sameCounters reports the first trace.Counters field that differs.
func sameCounters(a, b trace.Counters) error {
	fa, fb := a.Fields(), b.Fields()
	for i := range fa {
		if fa[i].Value != fb[i].Value {
			return fmt.Errorf("counter %s: %g vs %g", fa[i].Name, fa[i].Value, fb[i].Value)
		}
	}
	return nil
}

// fingerprint is what the traced run must reproduce of an op bit for bit:
// iterations, every rank's counters, and the hash of the answer.
type fingerprint struct {
	iters    int
	counters []trace.Counters
	xhash    string
}

func (f fingerprint) match(g fingerprint) error {
	if f.iters != g.iters {
		return fmt.Errorf("iterations %d vs %d", f.iters, g.iters)
	}
	if f.xhash != g.xhash {
		return fmt.Errorf("x_hash %s vs %s", f.xhash, g.xhash)
	}
	if len(f.counters) != len(g.counters) {
		return fmt.Errorf("%d vs %d rank counters", len(f.counters), len(g.counters))
	}
	for r := range f.counters {
		if err := sameCounters(f.counters[r], g.counters[r]); err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}
