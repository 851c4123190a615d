package engine

import "repro/internal/obs"

// BlockEngine is the base engine a block (multi-RHS) gang runs on: an
// Engine plus SpMVBlock, dsts[j] = A·srcs[j] over the engine's local rows
// for a whole batch, sharing one pass over the operator — and, on
// distributed backends, one halo-exchange round — across the batch.
// engine.Seq and comm.Engine implement it; sim.Engine does not, so a gang
// over the simulator does not compile.
type BlockEngine interface {
	Engine
	SpMVBlock(dsts, srcs [][]float64)
}

// SpMVBlock implements BlockEngine on the sequential engine. The ledger
// books the batch as the client-visible work — len(srcs) SPMVs' worth of
// flops — over a single logical halo exchange, mirroring how the
// distributed backend pays one message round for the whole batch.
func (e *Seq) SpMVBlock(dsts, srcs [][]float64) {
	sp := e.Tr.Begin(obs.PhaseBlockSpMV)
	e.A.MulMat(dsts, srcs)
	e.Tr.End(sp)
	e.C.SpMV += len(srcs)
	e.C.HaloExchanges++
	e.C.SpMVFlops += 2 * float64(e.A.NNZ()) * float64(len(srcs))
}
