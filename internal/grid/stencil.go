package grid

import (
	"fmt"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// StencilOp is a matrix-free operator for the Star5/Star7 grid Laplacians:
// the same SPD operator Grid.Laplacian assembles, applied directly from the
// grid geometry with no stored values or column indices. Per row the CSR
// kernel streams ~12 bytes per nonzero (value + column index) on top of the
// vector traffic; the stencil touches only the vectors, which is the whole
// win on these bandwidth-bound products.
//
// Bit-for-bit contract with the assembled matrix: every row accumulates its
// terms in exactly the CSR kernel's order — ascending column, 4-way unrolled
// batches combined as (s0+s1)+(s2+s3), remainder folded into s0 — and the
// parallel chunk geometry is planned over a synthetic row-pointer array
// identical to the assembled matrix's RowPtr. A solve through a StencilOp
// produces the same bits as one through Grid.Laplacian() at any worker
// count.
type StencilOp struct {
	g      Grid
	n      int
	diag   float64
	rowPtr []int // synthetic prefix-nnz: chunk-plan parity with the CSR form

	plan atomic.Pointer[sparse.Chunks]
}

// NewStencilOp returns the matrix-free operator for g. Only the star-shaped
// stencils have matrix-free kernels (Star7 on 3D grids, Star5 on 2D grids);
// other stencils return an error and stay on the assembled CSR path.
func NewStencilOp(g Grid) (*StencilOp, error) {
	switch g.Stencil {
	case Star7:
		if g.Nz <= 1 {
			return nil, fmt.Errorf("grid: Star7 stencil needs a 3D grid, got %dx%dx%d", g.Nx, g.Ny, g.Nz)
		}
	case Star5:
		if g.Nz != 1 {
			return nil, fmt.Errorf("grid: Star5 stencil needs a 2D grid, got %dx%dx%d", g.Nx, g.Ny, g.Nz)
		}
	default:
		return nil, fmt.Errorf("grid: no matrix-free kernel for the %v stencil", g.Stencil)
	}
	s := &StencilOp{g: g, n: g.N(), diag: float64(len(g.Stencil.offsets()))}
	s.rowPtr = make([]int, s.n+1)
	i := 0
	for z := 0; z < g.Nz; z++ {
		for y := 0; y < g.Ny; y++ {
			for x := 0; x < g.Nx; x++ {
				cnt := 1 // diagonal
				if x > 0 {
					cnt++
				}
				if x < g.Nx-1 {
					cnt++
				}
				if y > 0 {
					cnt++
				}
				if y < g.Ny-1 {
					cnt++
				}
				if g.Stencil == Star7 {
					if z > 0 {
						cnt++
					}
					if z < g.Nz-1 {
						cnt++
					}
				}
				s.rowPtr[i+1] = s.rowPtr[i] + cnt
				i++
			}
		}
	}
	return s, nil
}

// MatrixFree returns the matrix-free operator for g when one exists.
func (g Grid) MatrixFree() (*StencilOp, bool) {
	s, err := NewStencilOp(g)
	return s, err == nil
}

// Grid returns the grid geometry the operator applies.
func (s *StencilOp) Grid() Grid { return s.g }

// Dims implements engine.Operator.
func (s *StencilOp) Dims() (rows, cols int) { return s.n, s.n }

// NNZ returns the nonzero count of the equivalent assembled matrix.
func (s *StencilOp) NNZ() int { return s.rowPtr[s.n] }

// Diag returns the operator diagonal: the full stencil neighbor count at
// every point (Dirichlet keeps the boundary weight on the diagonal).
func (s *StencilOp) Diag() []float64 { return s.DiagRange(0, s.n) }

// DiagRange implements engine.Operator.
func (s *StencilOp) DiagRange(lo, hi int) []float64 {
	d := make([]float64, hi-lo)
	for i := range d {
		d[i] = s.diag
	}
	return d
}

// ChunkPlan returns the cached full-range chunk plan — the same nnz-balanced
// geometry the assembled matrix would plan.
func (s *StencilOp) ChunkPlan() *sparse.Chunks {
	if p := s.plan.Load(); p != nil {
		return p
	}
	ch := sparse.WorkChunks(s.rowPtr, 0, s.n)
	if s.plan.CompareAndSwap(nil, &ch) {
		return &ch
	}
	if p := s.plan.Load(); p != nil {
		return p
	}
	return &ch
}

// InvalidatePlan implements engine.Operator. The stencil structure is
// immutable, so this only drops the cached plan.
func (s *StencilOp) InvalidatePlan() { s.plan.Store(nil) }

// row7 applies one Star7 row with boundary handling, in the CSR kernel's
// exact accumulation order (ascending column, unrolled batch + remainder).
func (s *StencilOp) row7(x []float64, i, xi, yi, zi int) float64 {
	g := s.g
	nx, nxy := g.Nx, g.Nx*g.Ny
	var cols [7]int
	var vals [7]float64
	cnt := 0
	if zi > 0 {
		cols[cnt], vals[cnt] = i-nxy, -1
		cnt++
	}
	if yi > 0 {
		cols[cnt], vals[cnt] = i-nx, -1
		cnt++
	}
	if xi > 0 {
		cols[cnt], vals[cnt] = i-1, -1
		cnt++
	}
	cols[cnt], vals[cnt] = i, s.diag
	cnt++
	if xi < nx-1 {
		cols[cnt], vals[cnt] = i+1, -1
		cnt++
	}
	if yi < g.Ny-1 {
		cols[cnt], vals[cnt] = i+nx, -1
		cnt++
	}
	if zi < g.Nz-1 {
		cols[cnt], vals[cnt] = i+nxy, -1
		cnt++
	}
	return accumRow(&vals, &cols, cnt, x)
}

// row5 is row7's 2D counterpart.
func (s *StencilOp) row5(x []float64, i, xi, yi int) float64 {
	g := s.g
	nx := g.Nx
	var cols [7]int
	var vals [7]float64
	cnt := 0
	if yi > 0 {
		cols[cnt], vals[cnt] = i-nx, -1
		cnt++
	}
	if xi > 0 {
		cols[cnt], vals[cnt] = i-1, -1
		cnt++
	}
	cols[cnt], vals[cnt] = i, s.diag
	cnt++
	if xi < nx-1 {
		cols[cnt], vals[cnt] = i+1, -1
		cnt++
	}
	if yi < g.Ny-1 {
		cols[cnt], vals[cnt] = i+nx, -1
		cnt++
	}
	return accumRow(&vals, &cols, cnt, x)
}

// accumRow is the CSR inner loop verbatim: 4-way unrolled batches, remainder
// into s0, combined as (s0+s1)+(s2+s3).
func accumRow(vals *[7]float64, cols *[7]int, cnt int, x []float64) float64 {
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+4 <= cnt; k += 4 {
		s0 += vals[k] * x[cols[k]]
		s1 += vals[k+1] * x[cols[k+1]]
		s2 += vals[k+2] * x[cols[k+2]]
		s3 += vals[k+3] * x[cols[k+3]]
	}
	for ; k < cnt; k++ {
		s0 += vals[k] * x[cols[k]]
	}
	return (s0 + s1) + (s2 + s3)
}

// rows applies rows [r0, r1), writing y[i-yoff] = scale·(A·x)[i]. Interior
// rows take the branch-free fast path; boundary rows gather through the
// generic CSR-order accumulator. scale==1 skips the multiply so the bits
// match the unscaled product exactly (CSR does the same).
func (s *StencilOp) rows(y, x []float64, r0, r1, yoff int, scale float64) {
	g := s.g
	nx, ny := g.Nx, g.Ny
	scaled := scale != 1
	i := r0
	for i < r1 {
		xi := i % nx
		t := i / nx
		yi := t % ny
		zi := t / ny
		lineEnd := i + nx - xi
		if lineEnd > r1 {
			lineEnd = r1
		}
		if g.Stencil == Star7 {
			interiorLine := yi > 0 && yi < ny-1 && zi > 0 && zi < g.Nz-1
			nxy := nx * ny
			for ; i < lineEnd; i++ {
				var v float64
				if interiorLine && xi > 0 && xi < nx-1 {
					// Interior Star7 row in CSR order: columns ascend as
					// i-nxy, i-nx, i-1, i (diag 6), i+1, i+nx, i+nxy; the
					// first four form the unrolled batch, the rest fold
					// into s0.
					var s0, s1, s2, s3 float64
					s0 += -1 * x[i-nxy]
					s1 += -1 * x[i-nx]
					s2 += -1 * x[i-1]
					s3 += 6 * x[i]
					s0 += -1 * x[i+1]
					s0 += -1 * x[i+nx]
					s0 += -1 * x[i+nxy]
					v = (s0 + s1) + (s2 + s3)
				} else {
					v = s.row7(x, i, xi, yi, zi)
				}
				if scaled {
					v *= scale
				}
				y[i-yoff] = v
				xi++
			}
		} else {
			interiorLine := yi > 0 && yi < ny-1
			for ; i < lineEnd; i++ {
				var v float64
				if interiorLine && xi > 0 && xi < nx-1 {
					// Interior Star5 row in CSR order: i-nx, i-1, i (diag 4),
					// i+1 form the batch; i+nx folds into s0.
					var s0, s1, s2, s3 float64
					s0 += -1 * x[i-nx]
					s1 += -1 * x[i-1]
					s2 += 4 * x[i]
					s3 += -1 * x[i+1]
					s0 += -1 * x[i+nx]
					v = (s0 + s1) + (s2 + s3)
				} else {
					v = s.row5(x, i, xi, yi)
				}
				if scaled {
					v *= scale
				}
				y[i-yoff] = v
				xi++
			}
		}
	}
}

// mulVec is the dispatcher, mirroring the CSR one: serial for small ranges,
// the cached plan for the full range, binary-searched chunk bounds for
// partial (rank-local) ranges.
func (s *StencilOp) mulVec(y, x []float64, lo, hi, yoff int, scale float64) {
	if len(x) < s.n {
		panic(fmt.Sprintf("grid: StencilOp MulVec x too short: %d < %d", len(x), s.n))
	}
	if lo >= hi {
		return
	}
	total := sparse.RowWork(s.rowPtr, lo, hi)
	nc := par.NumChunks(total)
	if nc <= 1 {
		s.rows(y, x, lo, hi, yoff, scale)
		return
	}
	if lo == 0 && hi == s.n {
		ch := s.ChunkPlan()
		n := len(ch.Bounds) - 1
		par.Default().ForChunks(n, func(c int) {
			s.rows(y, x, ch.Bounds[c], ch.Bounds[c+1], yoff, scale)
		})
		return
	}
	par.Default().ForChunks(nc, func(c int) {
		r0 := sparse.SearchRow(s.rowPtr, lo, hi, c*total/nc)
		r1 := sparse.SearchRow(s.rowPtr, lo, hi, (c+1)*total/nc)
		s.rows(y, x, r0, r1, yoff, scale)
	})
}

// MulVec implements engine.Operator.
func (s *StencilOp) MulVec(y, x []float64) { s.mulVec(y, x, 0, s.n, 0, 1) }

// MulVecRange implements engine.Operator.
func (s *StencilOp) MulVecRange(y, x []float64, lo, hi int) { s.mulVec(y, x, lo, hi, 0, 1) }

// MulVecRangeInto implements engine.Operator.
func (s *StencilOp) MulVecRangeInto(y, x []float64, lo, hi int) { s.mulVec(y, x, lo, hi, lo, 1) }

// MulVecFused implements engine.Operator with the same chunk geometry,
// scale semantics and ascending-order dot fold as the CSR fused kernel, so a
// fused solve through the stencil stays bit-identical to one through the
// assembled matrix.
func (s *StencilOp) MulVecFused(y, x []float64, lo, hi, yoff int, scale float64, ws [][]float64, dots []float64) {
	if len(ws) != len(dots) {
		panic("grid: StencilOp MulVecFused ws/dots length mismatch")
	}
	for k := range dots {
		dots[k] = 0
	}
	if len(x) < s.n {
		panic(fmt.Sprintf("grid: StencilOp MulVecFused x too short: %d < %d", len(x), s.n))
	}
	if lo >= hi {
		return
	}
	total := sparse.RowWork(s.rowPtr, lo, hi)
	nc := par.NumChunks(total)
	if nc <= 1 {
		s.rows(y, x, lo, hi, yoff, scale)
		chunkDots(dots, ws, y, lo, hi, yoff)
		return
	}
	nd := len(ws)
	var bounds []int
	if lo == 0 && hi == s.n {
		bounds = s.ChunkPlan().Bounds
		nc = len(bounds) - 1
	}
	partials := make([]float64, nc*nd)
	par.Default().ForChunks(nc, func(c int) {
		var r0, r1 int
		if bounds != nil {
			r0, r1 = bounds[c], bounds[c+1]
		} else {
			r0 = sparse.SearchRow(s.rowPtr, lo, hi, c*total/nc)
			r1 = sparse.SearchRow(s.rowPtr, lo, hi, (c+1)*total/nc)
		}
		s.rows(y, x, r0, r1, yoff, scale)
		chunkDots(partials[c*nd:(c+1)*nd], ws, y, r0, r1, yoff)
	})
	for c := 0; c < nc; c++ {
		for k := 0; k < nd; k++ {
			dots[k] += partials[c*nd+k]
		}
	}
}

// chunkDots accumulates the fused kernel's local dot partials for rows
// [r0, r1): out[k] += ws[k]·y (nil ws[k] means y·y), local indexing.
func chunkDots(out []float64, ws [][]float64, y []float64, r0, r1, yoff int) {
	for k, w := range ws {
		if w == nil {
			w = y
		}
		out[k] += vec.DotRange(w, y, r0-yoff, r1-yoff)
	}
}
