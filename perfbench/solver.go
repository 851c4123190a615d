package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/bench"
	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/krylov"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/precond"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// blockS is the s-step block size of every PIPE-PsCG solve the benchmark runs.
const blockS = 3

// solveOp is one timed solve of a solver-only workload.
type solveOp struct {
	latMS float64
	end   time.Time // when the op, answer check included, returned
	cost  cost      // of the solve call alone, not of the benchmark's RHS and check
	fp    fingerprint
	sums  []obs.Summary // per-rank tracer summaries; traced ops only
	err   error
}

// total returns rank 0's counters with the flops summed over ranks: every
// rank runs the same kernel schedule, but each counts only its local flops.
func (o solveOp) total() trace.Counters {
	c := o.fp.counters[0]
	for _, rc := range o.fp.counters[1:] {
		c.Flops += rc.Flops
	}
	return c
}

// solverRun is a built solver-only workload: run executes op i with the
// given method, recording spans on rec when it is non-nil.
type solverRun struct {
	pr  bench.Problem
	run func(i int, solver krylov.Solver, rec *recorder) solveOp
}

func solveOptions(pr bench.Problem) krylov.Options {
	opt := bench.DefaultOptions(pr)
	opt.S = blockS
	opt.RelTol = 1e-5
	return opt
}

// finishSolve checks a finished solve's answer and builds its op record.
func finishSolve(a *sparse.CSR, b []float64, x []float64, iters int, conv bool,
	counters []trace.Counters, lat time.Duration, c cost) solveOp {
	op := solveOp{latMS: float64(lat.Nanoseconds()) / 1e6, cost: c,
		fp: fingerprint{iters: iters, counters: counters, xhash: serve.XHash(x)}}
	if !conv {
		op.err = fmt.Errorf("solve did not converge in %d iterations", iters)
		return op
	}
	op.err = checkAnswer(a, b, x)
	return op
}

// buildSeq sets up the seq-pipe-pscg workload: the matrix-free 7-point
// Poisson operator at n=32 with seeded right-hand sides.
func buildSeq(seed int64) (*solverRun, func(), error) {
	sr, err := newSeqRun(32, func(i, rows int) []float64 { return seededRHS(seed, i, rows) })
	return sr, func() {}, err
}

// newSeqRun builds solves on engine.Seq over the matrix-free 7-point Poisson
// operator of side n with a Jacobi PC, op i on the right-hand side rhs(i),
// and runs one warm-up solve.
func newSeqRun(n int, rhs func(i, rows int) []float64) (*solverRun, error) {
	pr := bench.Poisson7(n)
	pc, err := bench.MakePC("jacobi", pr)
	if err != nil {
		return nil, err
	}
	opt := solveOptions(pr)
	if _, err := krylov.PIPEPSCG(engine.NewSeq(pr.Operator(), pc), pr.B, opt); err != nil {
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}
	sr := &solverRun{pr: pr}
	sr.run = func(i int, solver krylov.Solver, rec *recorder) solveOp {
		root, t0 := rec.newID(), rec.now()
		var b []float64
		rec.around(i, root, "bench.rhs", func(string) { b = rhs(i, pr.A.Rows) })
		var (
			e    *engine.Seq
			res  *krylov.Result
			serr error
			lat  time.Duration
			c    cost
		)
		sid := rec.around(i, root, "krylov.solve", func(string) {
			lat, c = measure(func() {
				e = engine.NewSeq(pr.Operator(), pc)
				if rec != nil {
					e.Tr = obs.New(0, obs.WithClock(rec.now))
				}
				res, serr = solver(e, b, opt)
			})
		})
		var op solveOp
		if serr != nil {
			op = solveOp{err: serr}
		} else {
			rec.around(i, root, "sparse.check", func(string) {
				op = finishSolve(pr.A, b, res.X, res.Iterations, res.Converged,
					[]trace.Counters{*e.Counters()}, lat, c)
			})
		}
		if rec != nil {
			sum := e.Tr.Summary()
			rec.addEvents(i, sid, sum.Events)
			op.sums = []obs.Summary{sum}
			rec.add(span{Op: i, ID: root, Name: "bench.op", Start: t0, End: rec.now()})
		}
		return op
	}
	return sr, nil
}

// buildComm sets up the comm-latency workload: the 7-point Poisson operator
// at n=24 partitioned over commRanks goroutine ranks on a fabric with an
// injected hop latency, rank-local Jacobi PCs, and one warm-up solve.
func buildComm(seed int64) (*solverRun, func(), error) {
	pr := bench.Poisson7(24)
	pt := partition.RowBlockByNNZ(pr.A, commRanks)
	f := comm.NewFabric(commRanks, commHop)
	engines := comm.NewEnginesOp(f, pr.A, pr.Operator(), pt,
		func(a *sparse.CSR, lo, hi int) engine.Preconditioner { return precond.NewJacobi(a, lo, hi) })
	opt := solveOptions(pr)
	release := func() { _ = f.Close() } // a clean close is checked by the fabric's own tests
	sr := &solverRun{pr: pr}
	sr.run = func(i int, solver krylov.Solver, rec *recorder) solveOp {
		root, t0 := rec.newID(), rec.now()
		var b []float64
		var bs [][]float64
		rec.around(i, root, "bench.rhs", func(string) {
			b = seededRHS(seed, i, pr.A.Rows)
			bs = comm.Scatter(pt, b)
		})
		for r, e := range engines {
			e.Counters().Reset()
			if rec != nil {
				e.SetTracer(obs.New(r, obs.WithClock(rec.now)))
			} else {
				e.SetTracer(nil)
			}
		}
		xs := make([][]float64, commRanks)
		res := make([]*krylov.Result, commRanks)
		var errs []error
		var (
			lat time.Duration
			c   cost
		)
		sid := rec.around(i, root, "comm.run", func(string) {
			lat, c = measure(func() {
				errs = comm.RunErr(engines, func(r int, e *comm.Engine) error {
					rr, err := solver(e, bs[r], opt)
					if err == nil {
						res[r], xs[r] = rr, rr.X
					}
					return err
				})
			})
		})
		var op solveOp
		for r, err := range errs {
			if err != nil {
				op.err = fmt.Errorf("rank %d: %w", r, err)
				return op
			}
		}
		counters := make([]trace.Counters, commRanks)
		for r, e := range engines {
			counters[r] = *e.Counters()
		}
		rec.around(i, root, "sparse.check", func(string) {
			op = finishSolve(pr.A, b, comm.Gather(pt, xs), res[0].Iterations, res[0].Converged, counters, lat, c)
		})
		if rec != nil {
			for _, e := range engines {
				op.sums = append(op.sums, e.Tracer().Summary())
			}
			rec.addEvents(i, sid, op.sums[0].Events)
			rec.add(span{Op: i, ID: root, Name: "bench.op", Start: t0, End: rec.now()})
		}
		return op
	}
	if op := sr.run(-1, krylov.PIPEPSCG, nil); op.err != nil {
		release()
		return nil, nil, fmt.Errorf("warm-up solve: %w", op.err)
	}
	return sr, release, nil
}

func runSeqWorkload(cfg config, w io.Writer) (output, error) {
	return solverWorkload(cfg, w, buildSeq)
}

func runCommWorkload(cfg config, w io.Writer) (output, error) {
	return solverWorkload(cfg, w, buildComm)
}

// closedLoop runs ops back to back until the deadline (or, when count > 0,
// exactly count ops) and returns them in order.
func closedLoop(count int, deadline time.Time, fn func(i int) solveOp) []solveOp {
	var ops []solveOp
	for i := 0; ; i++ {
		if count > 0 && i == count || count == 0 && !time.Now().Before(deadline) {
			return ops
		}
		op := fn(i)
		op.end = time.Now()
		ops = append(ops, op)
	}
}

func tallyOps(ops []solveOp) *tally {
	t := &tally{}
	for _, op := range ops {
		if op.err != nil {
			t.fail(op.err)
			continue
		}
		t.ok(op.latMS, op.fp.iters, op.end)
	}
	return t
}

// solverWorkload runs a solver-only workload: its set-ups (median reported),
// then either one untraced timed window of PIPE-PsCG solves, or the traced
// run, which splits the window into an untraced pass and a traced replay of
// the same ops that must reproduce them bit for bit.
func solverWorkload(cfg config, w io.Writer, build func(seed int64) (*solverRun, func(), error)) (output, error) {
	sr, release, setupS, err := timeSetups(func() (*solverRun, func(), error) { return build(cfg.seed) })
	if err != nil {
		return output{}, err
	}
	defer release()
	n := sr.pr.A.Rows
	printWorkingSet(w, fmt.Sprintf("%s N=%d, assembled CSR for the answer check", sr.pr.Name, n),
		float64(sr.pr.A.NNZ())*16+float64(n+1)*8)
	printWorkingSet(w, fmt.Sprintf("%s N=%d, PIPE-PsCG vectors (Table I memory + x, b)", sr.pr.Name, n),
		(pipePsCGVectors(blockS)+2)*float64(n)*8)

	dur := time.Duration(cfg.seconds * float64(time.Second))
	pipe := func(rec *recorder) func(i int) solveOp {
		return func(i int) solveOp { return sr.run(i, krylov.PIPEPSCG, rec) }
	}
	if !cfg.trace {
		win := openWindow()
		ops := closedLoop(0, time.Now().Add(dur), pipe(nil))
		ws := win.close().withOpCost(ops)
		t := tallyOps(ops)
		return output{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
			Metrics: endToEnd(w, t, ws, setupS)}, nil
	}

	m := newLayerMetrics()
	win := openWindow()
	plain := closedLoop(0, time.Now().Add(dur/2), pipe(nil))
	ws := win.close()
	rec := newRecorder(time.Now())
	traced := closedLoop(len(plain), time.Time{}, pipe(rec))
	t := tallyOps(plain)
	tt := tallyOps(traced)
	failed := t.failed + tt.failed
	for i := range plain {
		if plain[i].err != nil || traced[i].err != nil {
			continue
		}
		if err := plain[i].fp.match(traced[i].fp); err != nil {
			fmt.Fprintf(w, "# BIT-IDENTITY FAILURE op %d: traced run differs: %v\n", i, err)
			failed++
		}
	}
	fmt.Fprintf(w, "# traced replay: %d ops, iterations/counters/x_hash compared with the untraced pass\n", len(traced))

	pipeOps, pcgOps, timeRatio := pcgRatio(sr)
	pt := tallyOps(append(pipeOps, pcgOps...))
	failed += pt.failed
	pipeC, pcgC := sumCounters(plain), sumCounters(pcgOps)
	counterMetrics(m, pipeC, blockS, n)
	m.put("krylov.pcg_time_ratio", timeRatio)
	printTableI(w, blockS, n, map[string]trace.Counters{"pipe-pscg": pipeC, "pcg": pcgC})

	var sums [][]obs.Summary
	for _, op := range traced {
		sums = append(sums, op.sums)
	}
	phaseMetrics(m, sums)
	if err := kernelMetrics(m, sr.pr, blockS, cfg.seed); err != nil {
		return output{}, err
	}
	if cfg.workload == "comm-latency" {
		if err := allreduceMetrics(m, blockS); err != nil {
			return output{}, err
		}
	}
	m.put("obs.tracing_overhead_ratio", median(tt.lat)/median(t.lat))
	m.put("runtime.gc_cycles_per_op", ratio(float64(ws.gc), float64(t.attempted)))
	printSelfTimes(w, rec, cfg, len(traced))
	printSolverDesign(w, cfg.workload, m, sums, median(tt.lat))
	attempted := t.attempted + tt.attempted + pt.attempted
	return output{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// printSolverDesign prints the design checks of the solver-only workloads:
// which layer carries the time.
func printSolverDesign(w io.Writer, workload string, m metrics, sums [][]obs.Summary, solveMS float64) {
	v := func(n string) float64 { return m[n].Value }
	switch workload {
	case "seq-pipe-pscg":
		largest, name := 0.0, ""
		for _, n := range []string{"vec.recurrence_lc_ms", "vec.gram_ms", "vec.local_dots_ms",
			"grid.spmv_ms", "precond.apply_ms"} {
			if v(n) > largest {
				largest, name = v(n), n
			}
		}
		fmt.Fprintf(w, "# design check: largest phase is %s (%.2f ms of a %.2f ms solve)\n", name, largest, solveMS)
	case "comm-latency":
		// The two metrics are maxima over ranks taken separately, so their
		// sum can exceed the solve; the waits of the most-waiting rank cannot.
		wait := v("comm.halo_wait_ms") + v("comm.allreduce_wait_ms")
		var rankWait float64
		for _, ranks := range sums {
			var mx int64
			for _, s := range ranks {
				mx = max(mx, s.Phases[obs.PhaseHaloWait].TotalNS+s.Phases[obs.PhaseAllreduceWait].TotalNS)
			}
			rankWait += float64(mx) / 1e6
		}
		rankWait = ratio(rankWait, float64(len(sums)))
		fmt.Fprintf(w, "# design check: halo+allreduce wait %.2f ms (max over ranks per phase), "+
			"%.2f ms = %.0f%% on the most-waiting rank, of a %.2f ms solve\n",
			wait, rankWait, 100*rankWait/solveMS, solveMS)
	}
}

// ratioPairs is how many right-hand sides krylov.pcg_time_ratio is taken over.
const ratioPairs = 10

// pcgRatio solves ops 0..ratioPairs-1 with PIPE-PsCG and with PCG in turn,
// so both methods see the same right-hand sides under the same conditions,
// and returns both methods' ops and the median per-RHS time ratio
// PIPE-PsCG ÷ PCG.
func pcgRatio(sr *solverRun) (pipe, pcg []solveOp, timeRatio float64) {
	var ratios []float64
	for i := 0; i < ratioPairs; i++ {
		p, q := sr.run(i, krylov.PIPEPSCG, nil), sr.run(i, krylov.PCG, nil)
		pipe, pcg = append(pipe, p), append(pcg, q)
		if p.err == nil && q.err == nil {
			ratios = append(ratios, p.latMS/q.latMS)
		}
	}
	return pipe, pcg, median0(ratios)
}

// sumCounters sums the counters of the successful ops.
func sumCounters(ops []solveOp) trace.Counters {
	var c trace.Counters
	for _, op := range ops {
		if op.err == nil {
			oc := op.total()
			c.Add(&oc)
		}
	}
	return c
}
