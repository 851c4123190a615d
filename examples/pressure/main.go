// Pressure: an OpenFOAM-motif pressure Poisson solve (the paper's §VI-E
// points out OpenFOAM solves these at rtol 1e-2) on a heterogeneous 2D
// conductance field, run SPMD on the goroutine runtime with real
// non-blocking allreduces — the Hybrid-pipelined method finishing at a
// tighter tolerance than the s-step recurrences alone support.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/bench"
	"repro/internal/comm"
	"repro/internal/grid"
	"repro/internal/krylov"
	"repro/internal/synth"
)

func main() {
	const ranks = 4

	// A heterogeneous conductance grid (ecology2-like, reduced scale).
	m := synth.Ecology2(16) // ≈62×62
	a := m.A
	b := grid.OnesRHS(a)
	fmt.Printf("pressure Poisson: %s stand-in, N=%d nnz=%d, %d SPMD ranks\n",
		m.Name, a.Rows, a.NNZ(), ranks)

	fabric := comm.NewFabric(ranks, 50*time.Microsecond) // injected hop latency
	defer fabric.Close()
	opt := krylov.Defaults()
	opt.RelTol = 1e-2 // the OpenFOAM default the paper cites

	start := time.Now()
	out, err := bench.Run(bench.Spec{Problem: bench.Problem{Name: m.Name, A: a, B: b},
		Method: "hybrid", PC: "jacobi", Opt: opt, Fabric: fabric})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	res := out.Res
	fmt.Printf("%s: converged=%v in %d iterations, relres=%.3e\n",
		res.Method, res.Converged, res.Iterations, res.RelRes)
	fmt.Printf("wall time %v with real overlapped allreduces (rank-0 counters: %s)\n",
		elapsed.Round(time.Millisecond), out.Counters[0])

	// The global pressure field, gathered across ranks; report its range.
	x := res.X
	lo, hi := x[0], x[0]
	for _, v := range x {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	fmt.Printf("pressure field range: [%.4f, %.4f]\n", lo, hi)
}
