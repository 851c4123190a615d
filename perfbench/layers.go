package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"repro/internal/bench"
	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/perfmodel"
	"repro/internal/precond"
	"repro/internal/trace"
	"repro/internal/vec"
)

// Layers a workload does not reach report 0: the service layers on the
// solver-only workloads, for example.
var perLayerNames = []struct{ name, unit string }{
	{"krylov.spmv_per_s_iters", "count"},
	{"krylov.pc_per_s_iters", "count"},
	{"krylov.allreduce_per_s_iters", "count"},
	{"krylov.flops_per_iter_n", "flops"},
	{"krylov.reduce_words_per_iter", "words"},
	{"krylov.pcg_time_ratio", "ratio"},
	{"vec.recurrence_lc_ms", "ms"},
	{"vec.gram_ms", "ms"},
	{"vec.local_dots_ms", "ms"},
	{"vec.gram_local_ns", "ns"},
	{"vec.gram_local_flops_per_byte", "flops/B"},
	{"vec.dot_pairs_ns", "ns"},
	{"vec.dot_pairs_flops_per_byte", "flops/B"},
	{"grid.spmv_ms", "ms"},
	{"grid.stencil_spmv_ns", "ns"},
	{"grid.stencil_spmv_bytes", "B"},
	{"grid.fused_powers_ns", "ns"},
	{"grid.fused_powers_bytes", "B"},
	{"sparse.csr_spmv_ns", "ns"},
	{"sparse.csr_spmv_bytes", "B"},
	{"precond.apply_ms", "ms"},
	{"precond.jacobi_apply_ns", "ns"},
	{"precond.jacobi_apply_bytes", "B"},
	{"par.spmv_speedup", "ratio"},
	{"par.gram_speedup", "ratio"},
	{"comm.halo_wait_ms", "ms"},
	{"comm.allreduce_wait_ms", "ms"},
	{"comm.iallreduce_post_ms", "ms"},
	{"comm.hidden_fraction", "ratio"},
	{"comm.allreduce_us", "us"},
	{"comm.allreduce_model_us", "us"},
	{"comm.halo_exchanges_per_iter", "count"},
	{"comm.rank_skew_max", "score"},
	{"serve.handler_ms.p50", "ms"},
	{"serve.queue_wait_ms.p50", "ms"},
	{"serve.coalesce_wait_ms.p50", "ms"},
	{"serve.solve_ms.p50", "ms"},
	{"serve.registry_hit_ratio", "ratio"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.upload_ms.p50", "ms"},
	{"serve.rejected_total", "count"},
	{"blockcg.block_spmv_ms", "ms"},
	{"blockcg.block_gram_ms", "ms"},
	{"cluster.router_overhead_ms.p50", "ms"},
	{"cluster.retries_total", "count"},
	{"cluster.failovers_total", "count"},
	{"obs.tracing_overhead_ratio", "ratio"},
	{"runtime.gc_cycles_per_op", "count"},
}

// newLayerMetrics returns every per-layer metric at 0, to be filled in by
// the layers the workload reaches.
func newLayerMetrics() metrics {
	m := metrics{}
	for _, n := range perLayerNames {
		m.set(n.name, 0, n.unit)
	}
	return m
}

func (m metrics) put(name string, v float64) {
	mt, ok := m[name]
	if !ok {
		panic("perfbench: unknown per-layer metric " + name)
	}
	mt.Value = v
	m[name] = mt
}

// phaseMetrics fills the per-op phase metrics from each op's per-rank tracer
// summaries: per op the max over ranks (the rank that sets the op's time),
// then the mean over ops.
func phaseMetrics(m metrics, ops [][]obs.Summary) {
	perOp := func(p obs.Phase) float64 {
		var total float64
		for _, ranks := range ops {
			var mx int64
			for _, s := range ranks {
				mx = max(mx, s.Phases[p].TotalNS)
			}
			total += float64(mx) / 1e6
		}
		return ratio(total, float64(len(ops)))
	}
	m.put("vec.recurrence_lc_ms", perOp(obs.PhaseRecurrenceLC))
	m.put("vec.gram_ms", perOp(obs.PhaseGram))
	m.put("vec.local_dots_ms", perOp(obs.PhaseLocalDots))
	m.put("grid.spmv_ms", perOp(obs.PhaseSpMV))
	m.put("precond.apply_ms", perOp(obs.PhasePCApply))
	m.put("comm.halo_wait_ms", perOp(obs.PhaseHaloWait))
	m.put("comm.allreduce_wait_ms", perOp(obs.PhaseAllreduceWait))
	m.put("comm.iallreduce_post_ms", perOp(obs.PhaseIallreducePost))
	var ov obs.OverlapStats
	var skews []float64
	for _, ranks := range ops {
		for _, s := range ranks {
			ov.Merge(s.Overlap)
		}
		if len(ranks) > 1 {
			skews = append(skews, obs.AnalyzeSkew(ranks).MaxScore)
		}
	}
	m.put("comm.hidden_fraction", ov.HiddenFraction())
	if len(skews) > 0 {
		m.put("comm.rank_skew_max", median(skews))
	}
}

// counterMetrics fills the krylov counts from the summed counters of a
// method's ops (rank 0's for the collective counts; flops summed over ranks
// by the caller) at block size s on N unknowns.
func counterMetrics(m metrics, c trace.Counters, s, n int) {
	it := float64(c.Iterations)
	perS := func(v int) float64 { return ratio(float64(v)*float64(s), it) }
	m.put("krylov.spmv_per_s_iters", perS(c.SpMV))
	m.put("krylov.pc_per_s_iters", perS(c.PCApply))
	m.put("krylov.allreduce_per_s_iters", perS(c.Allreduce+c.Iallreduce))
	m.put("krylov.flops_per_iter_n", ratio(c.Flops, it*float64(n)))
	m.put("krylov.reduce_words_per_iter", ratio(float64(c.ReduceWords), it))
	m.put("comm.halo_exchanges_per_iter", ratio(float64(c.HaloExchanges), it))
}

// printTableI prints the measured Table I counts of PIPE-PsCG and PCG next
// to the paper's analytic values (perfmodel.TableI).
func printTableI(w io.Writer, s, n int, meas map[string]trace.Counters) {
	fmt.Fprintf(w, "# Table I self-check at s=%d (per s iterations; flops per iteration·N)\n", s)
	fmt.Fprintf(w, "#   %-10s %-8s %8s %8s %8s %10s\n", "method", "source", "allr", "spmv", "pc", "flops/itN")
	for _, row := range perfmodel.TableI(s) {
		c, ok := meas[string(row.Method)]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "#   %-10s %-8s %8.2f %8d %8d %10.2f\n", row.Method, "paper",
			row.Allreduces, s, s, row.Flops/float64(s))
		it := float64(c.Iterations)
		perS := func(v int) float64 { return ratio(float64(v)*float64(s), it) }
		fmt.Fprintf(w, "#   %-10s %-8s %8.2f %8.2f %8.2f %10.2f\n", row.Method, "measured",
			perS(c.Allreduce+c.Iallreduce), perS(c.SpMV), perS(c.PCApply), ratio(c.Flops, it*float64(n)))
	}
}

// pipePsCGVectors is Table I's resident vector count of PIPE-PsCG.
func pipePsCGVectors(s int) float64 {
	for _, row := range perfmodel.TableI(s) {
		if row.Method == perfmodel.PIPEPsCG {
			return row.Memory
		}
	}
	return 0
}

// timeCall returns the median per-call time of fn in nanoseconds over seven
// batches, each long enough (≥ 2 ms) to swamp the timer.
func timeCall(fn func()) float64 {
	fn()
	reps := 1
	for {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if time.Since(t0) > 2*time.Millisecond {
			break
		}
		reps *= 2
	}
	per := make([]float64, 0, 7)
	for b := 0; b < 7; b++ {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(reps))
	}
	return median(per)
}

func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// kernelMetrics times the kernels underneath a solve by direct calls at the
// workload's problem size and block size s, with bytes per call computed
// from array sizes.
func kernelMetrics(m metrics, pr bench.Problem, s int, seed int64) error {
	if pr.Grid == nil {
		return fmt.Errorf("kernel metrics need a structured problem")
	}
	op, ok := pr.Grid.MatrixFree()
	if !ok {
		return fmt.Errorf("%s has no matrix-free operator", pr.Name)
	}
	n := pr.A.Rows
	nf := float64(n)
	rng := rand.New(rand.NewSource(seed))
	x, y := randVec(rng, n), make([]float64, n)

	spmv := func() { op.MulVec(y, x) }
	m.put("grid.stencil_spmv_ns", timeCall(spmv))
	m.put("grid.stencil_spmv_bytes", 16*nf) // read x, write y
	dots := make([]float64, 2)
	ws := [][]float64{x, nil}
	m.put("grid.fused_powers_ns", timeCall(func() { op.MulVecFused(y, x, 0, n, 0, 0.8, ws, dots) }))
	m.put("grid.fused_powers_bytes", 16*nf) // the dots ride on the same sweep
	m.put("sparse.csr_spmv_ns", timeCall(func() { pr.A.MulVec(y, x) }))
	m.put("sparse.csr_spmv_bytes", float64(pr.A.NNZ())*16+(nf+1)*8+16*nf)
	jac := precond.NewJacobi(pr.A, 0, n)
	m.put("precond.jacobi_apply_ns", timeCall(func() { jac.Apply(y, x) }))
	m.put("precond.jacobi_apply_bytes", 24*nf) // inverse diagonal, src, dst

	cols, pows := vec.NewMulti(n, s), vec.NewMulti(n, s)
	for j := 0; j < s; j++ {
		copy(cols[j], randVec(rng, n))
		copy(pows[j], randVec(rng, n))
	}
	g := make([]float64, s*s)
	gram := func() { vec.GramLocal(g, cols, pows) }
	m.put("vec.gram_local_ns", timeCall(gram))
	m.put("vec.gram_local_flops_per_byte", 2*nf*float64(s*s)/(16*nf*float64(s)))
	// The 2s+2 moment and norm dots of one s-step reduction payload.
	var xs, ys [][]float64
	for k := 0; k < 2*s; k++ {
		xs = append(xs, cols[k/2%s])
		ys = append(ys, pows[(k-k/2)%s])
	}
	xs = append(xs, cols[0], pows[0])
	ys = append(ys, cols[0], pows[0])
	out := make([]float64, len(xs))
	m.put("vec.dot_pairs_ns", timeCall(func() { vec.DotPairs(out, xs, ys) }))
	m.put("vec.dot_pairs_flops_per_byte", 2*nf/(16*nf))

	workers := par.Workers()
	par.SetWorkers(1)
	spmv1, gram1 := timeCall(spmv), timeCall(gram)
	par.SetWorkers(workers)
	spmvN, gramN := timeCall(spmv), timeCall(gram)
	m.put("par.spmv_speedup", spmv1/spmvN)
	m.put("par.gram_speedup", gram1/gramN)
	return nil
}

// Paper regime of the comm layer: P ranks with an injected hop latency.
const (
	commRanks = 4
	commHop   = 100 * time.Microsecond
)

// allreduceMetrics times a direct blocking AllreduceSum of the s-step
// payload on a P-rank fabric, next to the ⌈log2 P⌉·hop latency model.
func allreduceMetrics(m metrics, s int) error {
	pr := bench.Poisson7(8)
	f := comm.NewFabric(commRanks, commHop)
	engines := comm.NewEngines(f, pr.A, partition.RowBlockByNNZ(pr.A, commRanks), nil)
	words := perfmodel.SStepPayloadWords(s)
	const warm, reps = 5, 60
	var perCall time.Duration
	errs := comm.RunErr(engines, func(r int, e *comm.Engine) error {
		buf := make([]float64, words)
		for k := 0; k < warm; k++ {
			e.AllreduceSum(buf)
		}
		e.Barrier()
		t0 := time.Now()
		for k := 0; k < reps; k++ {
			e.AllreduceSum(buf)
		}
		if r == 0 {
			perCall = time.Since(t0) / reps
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("direct allreduce: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close fabric: %w", err)
	}
	m.put("comm.allreduce_us", float64(perCall.Nanoseconds())/1e3)
	m.put("comm.allreduce_model_us", math.Ceil(math.Log2(commRanks))*float64(commHop.Microseconds()))
	return nil
}
