// Command pipescg is the general-purpose CLI solver: pick a problem (built
// in or MatrixMarket file), a method, a preconditioner and a runtime, and
// solve A·x = b, reporting convergence, kernel counters and — under the sim
// runtime — modeled times across node counts.
//
// Runtimes:
//
//	-runtime seq   sequential reference
//	-runtime comm  R goroutine ranks with real non-blocking collectives
//	-runtime sim   virtual-clock cluster model (evaluated at -nodes)
//
// Examples:
//
//	pipescg -problem poisson125 -n 40 -method pipe-pscg -pc jacobi
//	pipescg -problem ecology2 -scale 4 -method hybrid -rtol 1e-5
//	pipescg -matrix m.mtx -method pipecg -runtime comm -ranks 8
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/comm"
	"repro/internal/grid"
	"repro/internal/krylov"
	"repro/internal/sim"
	"repro/internal/sparse"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pipescg: ")
	var (
		problem = flag.String("problem", "poisson125", "built-in workload (ignored when -matrix is set)")
		matrix  = flag.String("matrix", "", "MatrixMarket file to solve instead of a built-in problem")
		n       = flag.Int("n", 40, "grid dimension for Poisson problems")
		scale   = flag.Int("scale", 4, "reduction factor for SuiteSparse stand-ins")
		method  = flag.String("method", "pipe-pscg", "solver method")
		pc      = flag.String("pc", "jacobi", "preconditioner")
		s       = flag.Int("s", 3, "block size for s-step methods")
		rtol    = flag.Float64("rtol", 0, "relative tolerance (0 = problem default)")
		maxIter = flag.Int("maxiter", 100000, "iteration cap")
		norm    = flag.String("norm", "preconditioned", "residual norm: preconditioned, unpreconditioned, natural")
		runtime = flag.String("runtime", "seq", "runtime: seq, comm, sim")
		ranks   = flag.Int("ranks", 4, "rank count for -runtime comm")
		latency = flag.Duration("latency", 0, "injected per-hop network latency for -runtime comm")
		nodes   = flag.String("nodes", "1,40,80,120", "node counts to price for -runtime sim")
	)
	flag.Parse()

	pr, err := loadProblem(*matrix, *problem, *n, *scale)
	if err != nil {
		log.Fatal(err)
	}
	opt := bench.DefaultOptions(pr)
	opt.S = *s
	opt.MaxIter = *maxIter
	if *rtol > 0 {
		opt.RelTol = *rtol
	}
	switch *norm {
	case "preconditioned":
		opt.Norm = krylov.NormPreconditioned
	case "unpreconditioned":
		opt.Norm = krylov.NormUnpreconditioned
	case "natural":
		opt.Norm = krylov.NormNatural
	default:
		log.Fatalf("unknown norm %q", *norm)
	}

	fmt.Printf("%s: N=%d nnz=%d method=%s pc=%s s=%d rtol=%.0e norm=%s runtime=%s\n",
		pr.Name, pr.A.Rows, pr.A.NNZ(), *method, *pc, *s, opt.RelTol, opt.Norm, *runtime)

	spec := bench.Spec{Problem: pr, Method: *method, PC: *pc, Opt: opt}
	switch *runtime {
	case "seq", "comm":
		if *runtime == "comm" {
			spec.Fabric = comm.NewFabric(*ranks, *latency)
			defer spec.Fabric.Close()
		}
		start := time.Now()
		out, err := bench.Run(spec)
		if err != nil {
			log.Fatal(err)
		}
		report(out.Res)
		if spec.Fabric == nil {
			fmt.Printf("wall time: %v\ncounters: %s\n", time.Since(start).Round(time.Millisecond), out.Counters[0])
		} else {
			fmt.Printf("wall time: %v over %d ranks (hop latency %v)\nrank-0 counters: %s\n",
				time.Since(start).Round(time.Millisecond), *ranks, *latency, out.Counters[0])
		}

	case "sim":
		run, err := bench.RunSim(pr, *method, *pc, opt)
		if err != nil {
			log.Fatal(err)
		}
		report(run.Result)
		fmt.Printf("counters: %s\n", run.Eng.Counters())
		nodeList, err := bench.ParseInts(*nodes)
		if err != nil {
			log.Fatal(err)
		}
		m := sim.CrayXC40()
		fmt.Println("modeled time to solution:")
		for _, nd := range nodeList {
			b := run.Eng.Evaluate(m, nd*m.CoresPerNode)
			fmt.Printf("  %3d nodes: total %.4gs  compute %.3gs  halo %.3gs  reduce exposed %.3gs hidden %.3gs\n",
				nd, b.Total, b.Compute, b.Halo, b.ReduceExposed, b.ReduceHidden)
		}

	default:
		log.Fatalf("unknown runtime %q", *runtime)
	}
}

func loadProblem(matrixPath, name string, n, scale int) (bench.Problem, error) {
	if matrixPath == "" {
		return bench.ProblemByName(name, n, scale)
	}
	f, err := os.Open(matrixPath)
	if err != nil {
		return bench.Problem{}, err
	}
	defer f.Close()
	a, err := sparse.ReadMatrixMarket(f)
	if err != nil {
		return bench.Problem{}, err
	}
	return bench.Problem{Name: matrixPath, A: a, B: grid.OnesRHS(a), RelTol: 1e-5}, nil
}

func report(res *krylov.Result) {
	fmt.Printf("%s: converged=%v iterations=%d (outer %d) relres=%.3e",
		res.Method, res.Converged, res.Iterations, res.Outer, res.RelRes)
	if res.Stagnated {
		fmt.Print(" [stagnated]")
	}
	if res.BrokeDown {
		fmt.Print(" [breakdown]")
	}
	fmt.Println()
}
