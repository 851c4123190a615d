package krylov

import (
	"errors"
	"math"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/scalarwork"
	"repro/internal/vec"
)

// sstepConfig selects one member of the s-step CG family. All five paper
// algorithms (2-7) are instances of the same iteration skeleton:
//
//	            classical(r=b-Ax)   recurrence residual     pipelined
//	SCG   (A2)        yes                  -                    -
//	PSCG  (A3)        yes                  -                    -
//	SCGS  (A4)         -                  yes                   -
//	PIPESCG (A5)       -                  yes                  yes
//	PIPEPSCG(A6/7)     -                  yes                  yes
type sstepConfig struct {
	name      string
	pipelined bool // non-blocking allreduce overlapped with the power kernels
	classical bool // recompute r = b - A·x each outer iteration (the extra SPMV)
	precond   bool
	// extraBytesPerOuter models method-specific overhead streams (used by
	// the PIPECG3 stand-in; see its doc comment).
	extraBytesPerOuter float64
}

// sstepState owns the vectors of one s-step solve.
type sstepState struct {
	e    engine.Engine
	s, n int
	cfg  sstepConfig

	x []float64
	// powU[j] = (M⁻¹A)^j u and powR[j] = (AM⁻¹)^j r = M·powU[j]; for the
	// unpreconditioned methods powR aliases powU (M = I).
	powU, powR [][]float64
	// Direction blocks and their operator images: AQmU[k] = (M⁻¹A)^{k+1}·Qu
	// in u-space, AQmR[k] = M·AQmU[k] in r-space. Blocking variants carry
	// only k=0; the pipelined variants carry k=0..s (the paper's AQm/AQ2m
	// "matrix of matrices").
	qU, qR, pU, pR vec.Multi
	aqU, aqR       []vec.Multi // current direction images
	apU, apR       []vec.Multi // previous direction images

	pay scalarwork.Payload
	buf []float64
	sw  *scalarwork.State

	// mpk computes Krylov power ranges with the engine's matrix powers
	// kernel (Options.MatrixPowers on an unpreconditioned method).
	mpk bool

	// sigma scales the monomial Krylov basis: powU[j] holds (M⁻¹A/σ)^j·u,
	// keeping the Gram matrices' dynamic range bounded so higher s values
	// stay numerically viable. σ is a setup-time estimate of λmax(M⁻¹A),
	// identical on every rank (computed through engine reductions).
	sigma float64

	// Fused-dot side channel: computePowers with fuse set folds moment
	// entries into the SPMV sweep (Engine.SpMVFusedDots); packDots consumes the
	// muVal entries flagged by muMask and clears the mask.
	muVal  []float64
	muMask []bool
	fws    [][]float64 // ws scratch for the fused kernel (≤ 2 entries)
	fdots  []float64
	// packDots pair-sweep scratch: operands, payload indices, results.
	pairX, pairY [][]float64
	pairI        []int
	pairD        []float64
}

func newSStepState(e engine.Engine, opt Options, cfg sstepConfig) *sstepState {
	s, n := opt.S, e.NLocal()
	st := &sstepState{e: e, s: s, n: n, cfg: cfg, sigma: 1}
	st.x = zerosLike(n, opt.X0)

	nPow := s + 1
	nBlocks := 1
	if cfg.pipelined {
		nPow = 2*s + 1
		nBlocks = s + 1
	}
	alloc := func() [][]float64 {
		v := make([][]float64, nPow)
		for j := range v {
			v[j] = make([]float64, n)
		}
		return v
	}
	st.powU = alloc()
	st.powR = st.powU
	st.qU = vec.NewMulti(n, s)
	st.pU = vec.NewMulti(n, s)
	st.qR, st.pR = st.qU, st.pU
	st.aqU = make([]vec.Multi, nBlocks)
	st.apU = make([]vec.Multi, nBlocks)
	for k := range st.aqU {
		st.aqU[k] = vec.NewMulti(n, s)
		st.apU[k] = vec.NewMulti(n, s)
	}
	st.aqR, st.apR = st.aqU, st.apU
	if cfg.precond {
		st.powR = alloc()
		st.qR = vec.NewMulti(n, s)
		st.pR = vec.NewMulti(n, s)
		st.aqR = make([]vec.Multi, nBlocks)
		st.apR = make([]vec.Multi, nBlocks)
		for k := range st.aqR {
			st.aqR[k] = vec.NewMulti(n, s)
			st.apR[k] = vec.NewMulti(n, s)
		}
	}

	st.pay = scalarwork.Payload{S: s, Extras: 2}
	st.buf = make([]float64, st.pay.Len())
	st.sw = scalarwork.NewState(s)

	st.muVal = make([]float64, 2*s)
	st.muMask = make([]bool, 2*s)
	st.fws = make([][]float64, 0, 2)
	st.fdots = make([]float64, 2)
	st.pairX = make([][]float64, 0, 2*s+2)
	st.pairY = make([][]float64, 0, 2*s+2)
	st.pairI = make([]int, 0, 2*s)
	st.pairD = make([]float64, 2*s+2)
	return st
}

// computePowers fills powR[j] = A·powU[j-1]/σ (SPMV) and, when
// preconditioned, powU[j] = M⁻¹·powR[j] (PC) for j in [lo, hi]. The σ basis
// scale rides the SPMV write-back (one multiply on the accumulated row sum —
// the same flops as the separate vec.Scale pass, bit-identical, minus one
// full memory sweep). With fuse set, the moment entries whose operands are
// the SPMV's own source and product — mu[2j-1] = ⟨powU[j-1], powR[j]⟩
// always, plus the self-dot mu[2j] = ⟨powR[j], powR[j]⟩ when the basis is
// unpreconditioned (powU aliases powR) — fold into the same pass, dotting
// each chunk of the product while it is cache-hot; packDots consumes them
// through the muVal/muMask side channel. Fuse is only set on ranges that
// feed the next packDots (powers 1..s); the pipelined overlap range
// s+1..2s computes powers the current payload never dots.
func (st *sstepState) computePowers(lo, hi int, fuse bool) {
	if st.mpk && hi > lo {
		// Matrix powers kernel: the whole contiguous range in one deep
		// exchange, then undo the basis scaling per level.
		dst := make([][]float64, hi-lo+1)
		for j := lo; j <= hi; j++ {
			dst[j-lo] = st.powR[j]
		}
		st.e.SpMVPowers(dst, st.powU[lo-1])
		if st.sigma != 1 {
			scale := 1.0
			for j := lo; j <= hi; j++ {
				scale /= st.sigma
				vec.Scale(st.powR[j], scale)
				st.e.Charge(float64(st.n), 16*float64(st.n))
			}
		}
		return
	}
	scale := 1.0
	if st.sigma != 1 {
		scale = 1 / st.sigma
	}
	for j := lo; j <= hi; j++ {
		ws := st.fws[:0]
		if fuse {
			ws = append(ws, st.powU[j-1])
			if !st.cfg.precond && 2*j < 2*st.s {
				ws = append(ws, nil)
			}
		}
		if len(ws) > 0 || scale != 1 {
			dots := st.fdots[:len(ws)]
			st.e.SpMVFusedDots(st.powR[j], st.powU[j-1], scale, ws, dots)
			if scale != 1 {
				// The scale's flops; its memory sweep is absorbed by the SPMV.
				st.e.Charge(float64(st.n), 0)
			}
			if len(ws) > 0 {
				st.muVal[2*j-1] = dots[0]
				st.muMask[2*j-1] = true
				if len(ws) > 1 {
					st.muVal[2*j] = dots[1]
					st.muMask[2*j] = true
				}
			}
		} else {
			st.e.SpMV(st.powR[j], st.powU[j-1])
		}
		if st.cfg.precond {
			st.e.ApplyPC(st.powU[j], st.powR[j])
		}
	}
}

// estimateSigma runs a few power iterations of M⁻¹A through the engine's
// kernels and reductions, so every rank derives the same basis scale.
func (st *sstepState) estimateSigma(b []float64) {
	e, n := st.e, st.n
	v := make([]float64, n)
	t := make([]float64, n)
	w := make([]float64, n)
	if st.s <= 3 {
		// Short blocks: the monomial Gram matrices stay well conditioned in
		// double precision without rescaling (validated for s ≤ 3 across
		// the test problems), so the setup kernels are not worth spending —
		// they would dominate short solves with expensive preconditioners.
		return
	}
	copy(v, b)
	lambda := 1.0
	for it := 0; it < 3; it++ {
		e.SpMV(t, v)
		if st.cfg.precond {
			e.ApplyPC(w, t)
		} else {
			copy(w, t)
		}
		sp := st.e.BeginPhase(obs.PhaseLocalDots)
		buf := []float64{vec.Dot(v, w), vec.Dot(v, v), vec.Dot(w, w)}
		chargeDots(e, n, 3)
		st.e.EndPhase(sp)
		e.AllreduceSum(buf)
		// A poisoned reduction (e.g. an injected bit-flip surviving into the
		// setup allreduce) can land NaN/Inf in ANY of the three moments, or
		// flip a squared norm negative; every one of them would propagate
		// into lambda or the basis scale. Stop the power iteration on the
		// last sane estimate instead.
		if !isFinite(buf[0]) || !isFinite(buf[1]) || !isFinite(buf[2]) ||
			buf[1] <= 0 || buf[2] <= 0 {
			break
		}
		lambda = math.Abs(buf[0]) / buf[1]
		scale := 1 / math.Sqrt(buf[2])
		sp = st.e.BeginPhase(obs.PhaseRecurrenceLC)
		for i := range v {
			v[i] = w[i] * scale
		}
		chargeAxpys(e, n, 1)
		st.e.EndPhase(sp)
	}
	// A modest overestimate is harmless (it only shrinks the basis).
	st.sigma = 1.25 * lambda
	if st.sigma <= 0 || math.IsNaN(st.sigma) || math.IsInf(st.sigma, 0) {
		st.sigma = 1
	}
}

// packDots computes the fused reduction payload from the current powers and
// direction blocks: moments, cross-Gram, Pᵀr, and the two norm terms. The
// entries are blocked into shared sweeps — one DotPairs pass over the
// moment/norm pairs, one GramLocal for the s×s cross-Gram, one DotsAgainst
// for Pᵀr — each entry bit-identical to its separate vec.Dot (same chunk
// geometry, same fold order) while reading the operand vectors once per
// block instead of once per entry. Moment entries already produced inside a
// fused SPMV (muMask) are consumed, not recomputed.
func (st *sstepState) packDots() {
	sp := st.e.BeginPhase(obs.PhaseGram)
	defer st.e.EndPhase(sp)
	s, n := st.s, st.n
	mu := st.pay.Mu(st.buf)
	ex := st.pay.Extra(st.buf)

	nFused := 0
	xs, ys, idx := st.pairX[:0], st.pairY[:0], st.pairI[:0]
	for m := 0; m < 2*s; m++ {
		if st.muMask[m] {
			mu[m] = st.muVal[m]
			st.muMask[m] = false
			nFused++
			continue
		}
		a := m / 2
		xs = append(xs, st.powU[a])
		ys = append(ys, st.powR[m-a])
		idx = append(idx, m)
	}
	xs = append(xs, st.powU[0], st.powR[0])
	ys = append(ys, st.powU[0], st.powR[0])
	dots := st.pairD[:len(xs)]
	vec.DotPairs(dots, xs, ys)
	for k, m := range idx {
		mu[m] = dots[k]
	}
	ex[0] = dots[len(idx)]
	ex[1] = dots[len(idx)+1]

	vec.GramLocal(st.pay.C(st.buf), st.aqR[0], vec.Multi(st.powU[:s]))
	vec.DotsAgainst(st.pay.GP(st.buf), st.powR[0], st.qU)

	chargeDots(st.e, n, 2*s+s*s+s+2-nFused)
	if nFused > 0 {
		// The fused dots' multiply-adds; the SPMV pass absorbed the product
		// vector's read, leaving one operand stream per dot.
		st.e.Charge(2*float64(n*nFused), 8*float64(n*nFused))
	}
}

// norm2 selects the squared residual norm from the reduced payload.
func (st *sstepState) norm2(mode NormMode) float64 {
	ex := st.pay.Extra(st.buf)
	switch mode {
	case NormUnpreconditioned:
		return ex[1]
	case NormNatural:
		return st.pay.Mu(st.buf)[0]
	default:
		return ex[0]
	}
}

// buildDirections forms Q = K + P·B and AQm[k] = (M⁻¹A)^{k+1}K + APm[k]·B
// with the fused init+LC kernel (one pass per column).
func (st *sstepState) buildDirections(b []float64) {
	sp := st.e.BeginPhase(obs.PhaseRecurrenceLC)
	defer st.e.EndPhase(sp)
	s := st.s
	vec.InitAddScaledBlock(st.qU, st.powU[:s], st.pU, b)
	if st.cfg.precond {
		vec.InitAddScaledBlock(st.qR, st.powR[:s], st.pR, b)
	}
	for k := range st.aqU {
		vec.InitAddScaledBlock(st.aqU[k], st.powU[k+1:k+1+s], st.apU[k], b)
		if st.cfg.precond {
			vec.InitAddScaledBlock(st.aqR[k], st.powR[k+1:k+1+s], st.apR[k], b)
		}
	}
	spaces := 1
	if st.cfg.precond {
		spaces = 2
	}
	// Each fused block costs one copy sweep plus s² axpys sharing the
	// destination traffic; charge the axpys and one read of the base.
	blocks := spaces * (1 + len(st.aqU))
	st.e.Charge(2*float64(st.n*blocks*s*s), float64(st.n*blocks)*(8*float64(s)+16*float64(s*s)))
}

// swapBlocks rotates current direction blocks into the "previous" slots —
// the paper's even/odd P/Q alternation.
func (st *sstepState) swapBlocks() {
	st.qU, st.pU = st.pU, st.qU
	st.aqU, st.apU = st.apU, st.aqU
	if st.cfg.precond {
		st.qR, st.pR = st.pR, st.qR
		st.aqR, st.apR = st.apR, st.aqR
	} else {
		st.qR, st.pR = st.qU, st.pU
		st.aqR, st.apR = st.aqU, st.apU
	}
}

// solveSStep is the shared skeleton of the s-step family.
func solveSStep(e engine.Engine, b []float64, opt Options, cfg sstepConfig) (res *Result, err error) {
	defer catchCancel(opt.Context, &res, &err)
	if opt.S < 1 {
		return nil, errors.New("krylov: s-step methods need S ≥ 1")
	}
	s := opt.S
	st := newSStepState(e, opt, cfg)
	st.mpk = opt.MatrixPowers && !cfg.precond
	mon := newMonitor(e, b, opt)
	mon.x = st.x
	res = &Result{Method: cfg.name, X: st.x}
	st.estimateSigma(b)

	// Bootstrap: r0 = b - A·x0, u0 = M⁻¹r0, powers 1..s; dots; first
	// reduction. The pipelined variants overlap powers s+1..2s with it.
	// The same sequence re-seeds the solve after a basis breakdown.
	bootstrap := func() engine.Request {
		e.SpMV(st.powR[0], st.x)
		sp := st.e.BeginPhase(obs.PhaseRecurrenceLC)
		vec.Sub(st.powR[0], b, st.powR[0])
		chargeAxpys(e, st.n, 1)
		st.e.EndPhase(sp)
		if cfg.precond {
			e.ApplyPC(st.powU[0], st.powR[0])
		}
		st.computePowers(1, s, true)
		st.packDots()
		if cfg.pipelined {
			req := e.IallreduceSum(st.buf)
			st.computePowers(s+1, 2*s, false)
			return req
		}
		e.AllreduceSum(st.buf)
		return nil
	}
	req := bootstrap()

	// restart re-seeds the Krylov basis from the current iterate after a
	// singular Gram matrix (loss of block independence). Progress since
	// the previous restart gates retries, so a hard accuracy floor still
	// terminates.
	restarts := 0
	lastRestartRel := math.Inf(1)

	// reseed rebuilds the basis state from the current iterate: the common
	// tail of every recovery path (breakdown restart, divergence/stagnation
	// recovery). It recomputes the true residual via bootstrap, which is a
	// residual replacement by construction.
	reseed := func() {
		sp := st.e.BeginPhase(obs.PhaseRecovery)
		st.sw.Reset()
		st.pU.Zero()
		st.pR.Zero()
		for k := range st.apU {
			st.apU[k].Zero()
			st.apR[k].Zero()
		}
		st.e.EndPhase(sp)
		req = bootstrap()
	}

	// Recovery policy (Options.Recover): how many times the guards may
	// restart the solve instead of stopping it, gated on progress.
	maxRec := 0
	if opt.Recover {
		maxRec = opt.MaxRecoveries
		if maxRec <= 0 {
			maxRec = 8
		}
	}
	recoveries := 0
	lastRecoveryRel := math.Inf(1)
	corruptSeen := e.Counters().CommCorruptions
	forceReplace := false

	// Best-iterate safeguard: s-step recurrences can diverge past their
	// attainable accuracy on ill-conditioned systems (§V of the paper);
	// when the run stops without converging, hand back the best iterate.
	bestX := make([]float64, st.n)
	bestRel := math.Inf(1)

	alpha := make([]float64, s)
	for res.Iterations < opt.MaxIter {
		if cfg.pipelined {
			if err := waitReduce(req, opt.WaitDeadline); err != nil {
				res.RelRes = mon.relres()
				res.History = mon.hist
				return res, err
			}
		}
		stop, conv := mon.check(math.Sqrt(math.Abs(st.norm2(opt.Norm))), res.Iterations)
		if rel := mon.relres(); rel < bestRel {
			bestRel = rel
			copy(bestX, st.x)
		}
		if stop {
			if !conv && opt.Recover && (mon.diverged || mon.stagnat) &&
				recoveries < maxRec && bestRel < 0.99*lastRecoveryRel {
				// Graceful degradation instead of a hard stop: restore the
				// best iterate, recompute the true residual, rebuild the
				// basis and re-arm the guards.
				recoveries++
				lastRecoveryRel = bestRel
				sp := st.e.BeginPhase(obs.PhaseRecovery)
				c := e.Counters()
				c.Recoveries++
				c.ResidualReplacements++
				mon.rearm(bestRel)
				copy(st.x, bestX)
				st.e.EndPhase(sp)
				reseed()
				continue
			}
			res.Converged = conv
			res.Stagnated = mon.stagnat
			res.Diverged = mon.diverged
			break
		}

		// A comm-detected corruption event (checksum failure) taints the
		// recurrence state even after the payload was repaired downstream;
		// under the recovery policy the next residual advance is forced
		// through the classical r = b − A·x path.
		if opt.Recover {
			if cc := e.Counters().CommCorruptions; cc > corruptSeen {
				corruptSeen = cc
				forceReplace = true
				e.Counters().Recoveries++
			}
		}

		coeffs, err := st.sw.Step(st.pay, st.buf)
		if err != nil {
			if errors.Is(err, scalarwork.ErrBreakdown) {
				rel := mon.relres()
				if restarts < 8 && rel < 0.99*lastRestartRel {
					// Still making progress: rebuild the basis from the
					// current iterate and continue.
					restarts++
					lastRestartRel = rel
					c := e.Counters()
					c.Recoveries++
					c.ResidualReplacements++
					reseed()
					continue
				}
				res.BrokeDown = true
				break
			}
			return res, err
		}
		// The payload's moment and cross-Gram entries carry a uniform 1/σ
		// relative to the scaled-basis Grams (each operator application
		// contributes one 1/σ), so the solved step is σ·α. Dividing once
		// here restores the true basis coefficients; the residual-power
		// recurrence then uses σ·α_true = coeffs.Alpha directly.
		copy(alpha, coeffs.Alpha)
		xAlpha := make([]float64, s)
		for l := range xAlpha {
			xAlpha[l] = alpha[l] / st.sigma
		}

		st.buildDirections(coeffs.B)

		// x += Q·(α/σ).
		sp := st.e.BeginPhase(obs.PhaseRecurrenceLC)
		vec.AccumulateColumns(st.x, st.qU, xAlpha)
		chargeAxpys(e, st.n, s)
		st.e.EndPhase(sp)

		// Advance the residual powers. Periodic residual replacement
		// forces the classical recompute path for this outer iteration.
		replacePeriod := 0
		if opt.ReplaceEvery > 0 {
			replacePeriod = (opt.ReplaceEvery + s - 1) / s
		}
		replace := replacePeriod > 0 && res.Outer > 0 && res.Outer%replacePeriod == 0
		if forceReplace {
			replace = true
			forceReplace = false
			if !cfg.classical {
				e.Counters().ResidualReplacements++
			}
		}
		if cfg.classical || replace {
			// r = b - A·x (the extra SPMV of Alg. 2/3), u = M⁻¹r, then
			// rebuild powers 1..s with SPMVs (+PCs when preconditioned).
			tmp := st.powR[0]
			e.SpMV(tmp, st.x)
			sp = st.e.BeginPhase(obs.PhaseRecurrenceLC)
			vec.Sub(st.powR[0], b, tmp)
			chargeAxpys(e, st.n, 1)
			st.e.EndPhase(sp)
			if cfg.precond {
				e.ApplyPC(st.powU[0], st.powR[0])
			}
			st.computePowers(1, s, true)
		} else {
			// Recurrence residual update: pow[j] -= AQm[j]·(σ·α_true) for
			// every maintained image block (j = 0 for Alg. 4; j = 0..s for
			// the pipelined Alg. 5/6). σ·α_true is exactly the solved
			// coeffs.Alpha (see above), so no extra scaling is needed.
			sp = st.e.BeginPhase(obs.PhaseRecurrenceLC)
			for k := range st.aqU {
				vec.SubtractColumns(st.powU[k], st.aqU[k], alpha)
				if cfg.precond {
					vec.SubtractColumns(st.powR[k], st.aqR[k], alpha)
				}
			}
			spaces := 1
			if cfg.precond {
				spaces = 2
			}
			chargeAxpys(e, st.n, spaces*len(st.aqU)*s)
			st.e.EndPhase(sp)
			if !cfg.pipelined {
				// Alg. 4: only r was advanced; powers 1..s need s SPMVs.
				st.computePowers(1, s, true)
			}
		}

		st.packDots()
		if cfg.extraBytesPerOuter > 0 {
			e.Charge(0, cfg.extraBytesPerOuter)
		}
		if cfg.pipelined {
			req = e.IallreduceSum(st.buf)
			// The s overlapped SPMVs (+ s PCs): powers s+1..2s of the new
			// residual — needed only by the next iteration's recurrences.
			st.computePowers(s+1, 2*s, false)
		} else {
			e.AllreduceSum(st.buf)
		}

		st.swapBlocks()
		res.Iterations += s
		res.Outer++
	}

	if !res.Converged && bestRel < math.Inf(1) && bestRel < mon.relres() {
		copy(st.x, bestX)
		res.RelRes = bestRel
	} else {
		res.RelRes = mon.relres()
	}
	res.History = mon.hist
	e.Counters().Iterations = res.Iterations
	return res, nil
}

// SCG is the classical s-step conjugate gradient method of Chronopoulos &
// Gear (the paper's Algorithm 2): one blocking allreduce and s+1 SPMVs per
// outer iteration (each outer iteration advances s CG steps).
func SCG(e engine.Engine, b []float64, opt Options) (*Result, error) {
	return solveSStep(e, b, opt, sstepConfig{name: "scg", classical: true})
}

// PSCG is the preconditioned s-step CG (Algorithm 3): one blocking allreduce,
// s+1 SPMVs and s+1 PCs per outer iteration.
func PSCG(e engine.Engine, b []float64, opt Options) (*Result, error) {
	return solveSStep(e, b, opt, sstepConfig{name: "pscg", classical: true, precond: true})
}

// SCGS is sCG with s SPMVs (Algorithm 4) — the paper's first step: the
// residual and the direction images advance by recurrence linear
// combinations, removing the extra SPMV, but the allreduce still blocks.
func SCGS(e engine.Engine, b []float64, opt Options) (*Result, error) {
	return solveSStep(e, b, opt, sstepConfig{name: "scg-s"})
}

// PIPESCG is the pipelined s-step CG (Algorithm 5): one non-blocking
// allreduce per outer iteration (= per s CG steps) overlapped with the s
// SPMVs that build residual powers s+1..2s.
func PIPESCG(e engine.Engine, b []float64, opt Options) (*Result, error) {
	return solveSStep(e, b, opt, sstepConfig{name: "pipe-scg", pipelined: true})
}

// PIPEPSCG is the pipelined preconditioned s-step CG (Algorithms 6+7) — the
// paper's headline method: one non-blocking allreduce per s iterations
// overlapped with s PCs and s SPMVs, working with preconditioned,
// unpreconditioned or natural residual norms at no extra kernel cost.
func PIPEPSCG(e engine.Engine, b []float64, opt Options) (*Result, error) {
	return solveSStep(e, b, opt, sstepConfig{name: "pipe-pscg", pipelined: true, precond: true})
}
