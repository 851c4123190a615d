// Package engine defines the runtime abstraction the Krylov solvers are
// written against, plus the reference sequential implementation.
//
// Solvers are written once, in SPMD style, as the per-rank program: they
// operate on local vector slices, call SpMV/ApplyPC for the communication-
// aware kernels, compute local dot products themselves, and combine them
// with AllreduceSum (blocking, PCG-style) or IallreduceSum (non-blocking,
// the pipelined methods' MPI_Iallreduce). Three engines implement the
// interface:
//
//   - engine.Seq — one rank, global vectors, no timing: reference numerics.
//   - comm.Engine — R goroutine ranks with channel-based collectives and a
//     true asynchronous allreduce (real overlap).
//   - sim.Engine — one rank running the real numerics while a virtual-clock
//     cost model prices every kernel for a modeled machine with P ranks.
//
// Every kernel a solver or a wrapping engine uses — the fused SPMV, the
// matrix powers kernel, phase spans, deadline waits — is a required method
// of Engine, Operator or Request rather than an optional interface found by
// type assertion, so a wrapper that forgets one does not compile instead of
// silently taking a slower or bit-changing path. The block SPMV is the one
// addition on top: BlockEngine, the base a blockcg gang runs on, which Seq
// and comm.Engine implement and sim.Engine does not.
package engine

import (
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Request is a pending non-blocking reduction.
type Request interface {
	// Wait blocks until the reduced values are available in the buffer
	// passed to IallreduceSum.
	Wait()
	// WaitTimeout bounds the wait and returns an error (typed by the
	// backend, e.g. *comm.FaultError) when the reduction has not completed
	// within d — the solver-side belt over the fabric's own receive
	// deadlines. After a nil return the buffer holds the global sums,
	// exactly as after Wait. Backends whose reductions complete at once
	// return nil.
	WaitTimeout(d time.Duration) error
}

// Preconditioner applies M⁻¹ to a vector. Implementations live in
// internal/precond; the engine routes ApplyPC through one of these.
type Preconditioner interface {
	// Apply computes dst = M⁻¹·src. dst and src do not alias.
	Apply(dst, src []float64)
	// Name identifies the preconditioner in reports ("jacobi", "ssor", ...).
	Name() string
	// WorkPerApply returns the modeled global cost of one application:
	// floating point operations and bytes of memory traffic, plus the
	// number of neighbor-exchange rounds and internal allreduces the
	// distributed application would need (0 for local preconditioners).
	WorkPerApply() (flops, bytes float64, p2pRounds, allreduces int)
}

// Engine is the runtime a solver executes on.
type Engine interface {
	// NLocal returns the number of rows this rank owns.
	NLocal() int
	// NGlobal returns the global problem size.
	NGlobal() int

	// SpMV computes dst = A·src over the local rows, performing whatever
	// halo communication the backend needs. dst and src must not alias.
	SpMV(dst, src []float64)

	// SpMVFusedDots computes dst = scale·(A·src) over the local rows plus
	// the rank-local dot products dots[k] = ws[k]·dst (nil ws[k] means
	// dst·dst), fused into the SPMV's pass over the rows. ws entries share
	// dst's local indexing. The caller accounts the scale/dot work via
	// Charge — uniformly across engines — so backends only count the SPMV
	// itself.
	SpMVFusedDots(dst, src []float64, scale float64, ws [][]float64, dots []float64)

	// SpMVPowers is the matrix powers kernel (Hoemmen): dst[j] =
	// A^{j+1}·src for j = 0..len(dst)-1 with a single communication phase
	// instead of one halo exchange per product. The paper's §II discusses
	// why PIPE-sCG does not require it (it hides the allreduce, not the
	// SPMV's neighbor traffic) but can compose with it for unpreconditioned
	// solves.
	SpMVPowers(dst [][]float64, src []float64)

	// ApplyPC computes dst = M⁻¹·src over the local rows.
	ApplyPC(dst, src []float64)

	// AllreduceSum sums buf element-wise across all ranks, blocking.
	AllreduceSum(buf []float64)

	// IallreduceSum starts a non-blocking element-wise sum of buf across
	// ranks. buf must not be read or written until the returned request's
	// Wait returns, after which buf holds the global sums.
	IallreduceSum(buf []float64) Request

	// Charge accounts local vector work (VMAs, recurrence linear
	// combinations, local dot products): flops executed and bytes of
	// memory traffic. Backends that model time price this; all backends
	// count it.
	Charge(flops, bytes float64)

	// Counters exposes the kernel counters of this rank.
	Counters() *trace.Counters

	// BeginPhase and EndPhase bracket a solver-level section (dot batches,
	// Gram assembly, recurrence updates, recovery bookkeeping) as one phase
	// span. Engines delegate to their attached tracer, where a nil tracer
	// makes both a nil check; sim.Engine tags its recorded cost events
	// instead, so the spans materialize later on the virtual clock. The
	// engine kernels span themselves, so solver-side spans never nest
	// inside them.
	BeginPhase(p obs.Phase) obs.Span
	EndPhase(sp obs.Span)
}

// TraceRequest wraps a pending reduction so its wait is measured against the
// tracer's overlap ledger: BeginWait when the solver blocks, EndWait when the
// reduction delivers, AbortWait when the wait fails (deadline, fabric fault)
// so a reduction that never completed cannot pollute the hidden-fraction
// statistics. With a nil tracer the request is returned unwrapped.
func TraceRequest(req Request, tr *obs.Tracer, h int) Request {
	if tr == nil {
		return req
	}
	return tracedRequest{req: req, tr: tr, h: h}
}

type tracedRequest struct {
	req Request
	tr  *obs.Tracer
	h   int
}

func (r tracedRequest) Wait() {
	r.tr.BeginWait(r.h)
	ok := false
	defer func() {
		if !ok {
			r.tr.AbortWait(r.h)
		}
	}()
	r.req.Wait()
	ok = true
	r.tr.EndWait(r.h)
}

func (r tracedRequest) WaitTimeout(d time.Duration) error {
	r.tr.BeginWait(r.h)
	ok := false
	defer func() {
		if !ok {
			r.tr.AbortWait(r.h)
		}
	}()
	if err := r.req.WaitTimeout(d); err != nil {
		ok = true // not a panic: AbortWait explicitly, then report
		r.tr.AbortWait(r.h)
		return err
	}
	ok = true
	r.tr.EndWait(r.h)
	return nil
}

// Seq is the single-rank reference engine: global vectors, immediate
// reductions, no cost model beyond counters.
type Seq struct {
	A  Operator
	PC Preconditioner
	C  trace.Counters

	// Tr is the optional observability tracer. Nil (the default) means no
	// tracing: every instrumentation site degrades to a nil check.
	Tr *obs.Tracer
}

// NewSeq returns a sequential engine for the operator a with the given
// preconditioner (nil means identity — the unpreconditioned methods).
func NewSeq(a Operator, pc Preconditioner) *Seq {
	return &Seq{A: a, PC: pc}
}

// NLocal implements Engine.
func (e *Seq) NLocal() int { rows, _ := e.A.Dims(); return rows }

// NGlobal implements Engine.
func (e *Seq) NGlobal() int { return e.NLocal() }

// BeginPhase implements Engine.
func (e *Seq) BeginPhase(p obs.Phase) obs.Span { return e.Tr.Begin(p) }

// EndPhase implements Engine.
func (e *Seq) EndPhase(sp obs.Span) { e.Tr.End(sp) }

// SpMV implements Engine. The product runs on the shared worker pool (see
// internal/par); the counters record modeled work and are unaffected by how
// many OS threads execute it.
func (e *Seq) SpMV(dst, src []float64) {
	sp := e.Tr.Begin(obs.PhaseSpMV)
	e.A.MulVec(dst, src)
	e.Tr.End(sp)
	e.C.SpMV++
	e.C.HaloExchanges++
	e.C.SpMVFlops += 2 * float64(e.A.NNZ())
}

// SpMVFusedDots implements Engine: one traced SPMV span covering the fused
// product, scale and local dots. Counted as a single SPMV; the caller
// charges the scale/dot payload.
func (e *Seq) SpMVFusedDots(dst, src []float64, scale float64, ws [][]float64, dots []float64) {
	sp := e.Tr.Begin(obs.PhaseSpMV)
	rows, _ := e.A.Dims()
	e.A.MulVecFused(dst, src, 0, rows, 0, scale, ws, dots)
	e.Tr.End(sp)
	e.C.SpMV++
	e.C.HaloExchanges++
	e.C.SpMVFlops += 2 * float64(e.A.NNZ())
}

// SpMVPowers implements Engine (trivially, with one rank there is no
// communication to save).
func (e *Seq) SpMVPowers(dst [][]float64, src []float64) {
	sp := e.Tr.Begin(obs.PhaseSpMV)
	cur := src
	for j := range dst {
		e.A.MulVec(dst[j], cur)
		cur = dst[j]
		e.C.SpMV++
		e.C.SpMVFlops += 2 * float64(e.A.NNZ())
	}
	e.Tr.End(sp)
	e.C.HaloExchanges++
}

// ApplyPC implements Engine.
func (e *Seq) ApplyPC(dst, src []float64) {
	sp := e.Tr.Begin(obs.PhasePCApply)
	defer e.Tr.End(sp)
	e.C.PCApply++
	if e.PC == nil {
		copy(dst, src)
		return
	}
	e.PC.Apply(dst, src)
	flops, _, _, _ := e.PC.WorkPerApply()
	e.C.PCFlops += flops
}

// AllreduceSum implements Engine; with one rank it is a no-op on the data,
// but it still enters the overlap ledger as a blocking reduction (hidden
// fraction 0 by construction) so per-method reduction mixes stay comparable
// across runtimes.
func (e *Seq) AllreduceSum(buf []float64) {
	sp := e.Tr.Begin(obs.PhaseAllreduceWait)
	e.Tr.EndBlocking(sp, len(buf))
	e.C.Allreduce++
	e.C.ReduceWords += len(buf)
}

type seqRequest struct{}

func (seqRequest) Wait()                           {}
func (seqRequest) WaitTimeout(time.Duration) error { return nil }

// IallreduceSum implements Engine.
func (e *Seq) IallreduceSum(buf []float64) Request {
	sp := e.Tr.Begin(obs.PhaseIallreducePost)
	h := e.Tr.Post(len(buf))
	e.Tr.End(sp)
	e.C.Iallreduce++
	e.C.ReduceWords += len(buf)
	return TraceRequest(seqRequest{}, e.Tr, h)
}

// Charge implements Engine.
func (e *Seq) Charge(flops, bytes float64) { e.C.Flops += flops }

// Counters implements Engine.
func (e *Seq) Counters() *trace.Counters { return &e.C }
