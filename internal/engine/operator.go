package engine

import (
	"repro/internal/grid"
	"repro/internal/sparse"
)

// Operator is the linear operator the engines apply. *sparse.CSR is the
// canonical implementation; matrix-free operators (e.g. the grid stencils)
// implement the same contract without storing the matrix. The three MulVec
// forms mirror the CSR kernels: global product, global-indexed row range
// (rank-local SPMV into a global vector), and local-indexed row range (the
// SPMD runtime's form, y[i-lo] = (A·x)[i]).
//
// The chunk-plan hooks expose the parallel execution geometry: ChunkPlan
// returns the cached full-range nnz-balanced plan (a pure function of the
// operator structure, never of the worker count — the PR 1 determinism
// contract) and InvalidatePlan drops it after a structural mutation so a
// stale plan can never be served.
type Operator interface {
	// Dims returns the operator shape (rows, cols).
	Dims() (rows, cols int)
	// NNZ returns the number of (stored or implied) nonzeros; engines use it
	// to account SPMV flops.
	NNZ() int
	// MulVec computes y = A·x. y and x must not alias.
	MulVec(y, x []float64)
	// MulVecRange computes y[i] = (A·x)[i] for i in [lo, hi), y indexed
	// globally.
	MulVecRange(y, x []float64, lo, hi int)
	// MulVecRangeInto computes y[i-lo] = (A·x)[i] for i in [lo, hi).
	MulVecRangeInto(y, x []float64, lo, hi int)
	// MulVecFused is the cache-blocked fused SPMV + local-dot kernel: it
	// computes y[i-yoff] = scale·(A·x)[i] for rows [lo, hi) and dots[k] =
	// ws[k]·y over the produced range (nil ws[k] means y·y), dotting each
	// chunk of y while it is still cache-hot instead of re-reading it in
	// separate Scale/Dot sweeps. yoff is 0 (global y) or lo (local y).
	MulVecFused(y, x []float64, lo, hi, yoff int, scale float64, ws [][]float64, dots []float64)
	// MulMat computes ys[j] = A·xs[j] for every column j with one read of
	// the operator. The contract is strict bit-identity per column: ys[j]
	// equals, to the bit and at any worker count, what MulVec(ys[j], xs[j])
	// would produce. Implementations replicate the scalar kernel's
	// accumulation order per column over the same nnz-balanced chunk plans;
	// it is what lets a width-k gang solve equal k independent solves.
	MulMat(ys, xs [][]float64)
	// MulMatRangeInto computes ys[j][i-lo] = (A·xs[j])[i] for rows [lo, hi)
	// — local-length destinations, the distributed row-block shape — under
	// the same per-column bit-identity contract.
	MulMatRangeInto(ys, xs [][]float64, lo, hi int)
	// Diag returns the operator diagonal (zeros where absent).
	Diag() []float64
	// DiagRange returns the diagonal of rows [lo, hi), locally indexed.
	DiagRange(lo, hi int) []float64
	// ChunkPlan returns the cached full-range chunk plan.
	ChunkPlan() *sparse.Chunks
	// InvalidatePlan drops the cached chunk plan.
	InvalidatePlan()
}

// Both concrete operator families implement the full contract.
var (
	_ Operator = (*sparse.CSR)(nil)
	_ Operator = (*grid.StencilOp)(nil)
)
