package krylov

import (
	"fmt"
	"math"

	"repro/internal/engine"
)

// LadderRungs is the graceful-degradation sequence SolveLadder walks when a
// rung cannot reach the tolerance even with in-solver recovery: the paper's
// headline method first, then progressively more conservative formulations.
// Cools & Vanroose's stability analysis (PAPERS.md) is the ordering's
// rationale — pipelined s-step recurrences amplify perturbations the most,
// classical s-step less, plain PCG least.
var LadderRungs = []struct {
	Name  string
	Solve Solver
}{
	{"pipe-pscg", PIPEPSCG},
	{"pipe-m-cg-rr", PIPEMCGRR},
	{"pscg", PSCG},
	{"pcg", PCG},
}

// LadderError is the typed failure of a resilience-ladder solve: every rung
// was exhausted (or the iteration budget ran out) without reaching the
// tolerance. Result carries the best merged outcome.
type LadderError struct {
	Result *Result
	Rung   string // last rung attempted
}

// Error implements error.
func (e *LadderError) Error() string {
	return fmt.Sprintf("krylov: resilience ladder exhausted at rung %q: relres %.3g after %d iterations (stagnated=%v diverged=%v brokedown=%v)",
		e.Rung, e.Result.RelRes, e.Result.Iterations,
		e.Result.Stagnated, e.Result.Diverged, e.Result.BrokeDown)
}

// SolveLadder is the solver resilience ladder: it runs PIPE-PsCG with the
// in-solver recovery policy enabled (Options.Recover — breakdown, divergence
// and stagnation trigger residual replacement and a basis rebuild instead of
// a hard stop), and when a rung still cannot progress it steps down
// PIPE-PsCG → PIPE-M-CG-RR → PsCG → PCG, reseeding each rung from the best
// iterate so far. The residual-replacement rung sits between the pipelined
// s-step method and the blocking classical s-step method: it keeps the
// overlapped schedule but gives up the s-step basis, the usual first casualty
// on ill-conditioned systems.
// Every stepdown is recorded in trace.Counters. The returned error is nil on
// convergence and a typed *LadderError (or the backend's comm error)
// otherwise — never a silent wrong answer.
//
// Stepdown decisions depend only on globally reduced quantities, so on an
// SPMD runtime every rank walks the ladder identically.
func SolveLadder(e engine.Engine, b []float64, opt Options) (res *Result, err error) {
	defer catchCancel(opt.Context, &res, &err)
	opt.Recover = true
	var merged *Result
	lastRung := LadderRungs[0].Name
	for i, rung := range LadderRungs {
		lastRung = rung.Name
		ro := opt
		ro.MaxIter = opt.MaxIter
		if merged != nil {
			ro.X0 = merged.X
			ro.MaxIter = opt.MaxIter - merged.Iterations
		}
		if ro.MaxIter <= 0 {
			break
		}
		r, err := rung.Solve(e, b, ro)
		if merged == nil {
			merged = r
		} else if r != nil {
			merged = mergeResults(merged, r)
		}
		if merged != nil {
			merged.Method = "resilience-ladder"
		}
		if err != nil {
			return merged, err // comm failure: abort identically on all ranks
		}
		if merged.Converged {
			return merged, nil
		}
		if i < len(LadderRungs)-1 {
			c := e.Counters()
			c.Recoveries++
			c.LadderStepdowns++
		}
	}
	if merged == nil {
		merged = &Result{Method: "resilience-ladder", RelRes: math.NaN()}
	}
	return merged, &LadderError{Result: merged, Rung: lastRung}
}
