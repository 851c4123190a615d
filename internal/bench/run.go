package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/krylov"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// commWaitDeadline bounds every non-blocking reduction wait of a comm solve
// (unless Spec.Opt sets its own), so a rank whose peers are gone returns a
// typed error instead of hanging.
const commWaitDeadline = 10 * time.Second

// Spec describes one solve for Run. Without a Fabric it runs on
// engine.Seq; with one, on one comm.Engine per fabric rank.
type Spec struct {
	Problem Problem
	Method  string // a krylov.Methods name
	// PC names the preconditioner: any MakePC name on seq, a rank-local one
	// (none, jacobi, sor) on comm. Methods the registry marks
	// unpreconditioned run without one.
	PC string
	// Pooled, when non-nil, is a prebuilt preconditioner for the seq engine,
	// used instead of building PC (the daemon's checked-out pool instance).
	// Unpreconditioned methods ignore it.
	Pooled engine.Preconditioner
	// Opt are the solver options. Progress and Observe fire on rank 0 only;
	// Context cancels the solve (and aborts the fabric).
	Opt krylov.Options
	// Fabric, when non-nil, runs the solve SPMD over its ranks. The caller
	// owns it and closes it after Run.
	Fabric *comm.Fabric
	// Part is the row partition over the fabric's ranks; the zero value
	// means partition.RowBlockByNNZ.
	Part partition.Partition
	// Tracer, when non-nil, builds each rank's tracer; nil runs untraced.
	Tracer func(rank int) *obs.Tracer
}

// Outcome is one solve's observable result.
type Outcome struct {
	// Res is rank 0's result. When every rank finished without error, X is
	// the global iterate in the problem's source row ordering (gathered
	// across ranks, RCM reordering undone).
	Res *krylov.Result
	// Counters are the per-rank counter ledgers, rank 0 first.
	Counters []*trace.Counters
	// Anchor is the wall instant the tracers' clock zero maps to.
	Anchor time.Time
	// Solve is the wall time of the solve alone: engine and preconditioner
	// set-up, scatter, gather and un-permute are outside it.
	Solve time.Duration
	// Sums are the per-rank trace summaries (traced runs only).
	Sums []obs.Summary
	// Skew is the transit-attributed straggler analysis (traced comm runs
	// over more than one rank).
	Skew *obs.SkewReport
}

// Run executes one solve described by spec: it builds the engines, the
// preconditioners and the tracers, solves, and post-processes the iterate.
// A set-up error returns a nil Outcome; a solve error returns the Outcome
// gathered so far alongside it (on comm, prefixed with the failing rank).
// Every tool that solves on seq or comm goes through here, so the CLI, the
// daemon and the audit run one pipeline.
func Run(spec Spec) (*Outcome, error) {
	m, err := krylov.Lookup(spec.Method)
	if err != nil {
		return nil, err
	}
	pcName := spec.PC
	if !m.Preconditioned {
		pcName, spec.Pooled = "none", nil
	}
	if spec.Fabric == nil {
		return runSeq(spec, m, pcName)
	}
	return runComm(spec, m, pcName)
}

func runSeq(spec Spec, m krylov.Method, pcName string) (*Outcome, error) {
	pr := spec.Problem
	pc := spec.Pooled
	if pc == nil {
		var err error
		if pc, err = MakePC(pcName, pr); err != nil {
			return nil, err
		}
	}
	e := engine.NewSeq(pr.Operator(), pc)
	out := &Outcome{Anchor: time.Now()}
	if spec.Tracer != nil {
		e.Tr = spec.Tracer(0)
	}
	start := time.Now()
	res, err := m.Solve(e, pr.B, spec.Opt)
	out.Solve = time.Since(start)
	out.Counters = []*trace.Counters{e.Counters()}
	if e.Tr != nil {
		out.Sums = []obs.Summary{e.Tr.Summary()}
	}
	if res != nil {
		res.X = pr.SourceOrder(res.X)
	}
	out.Res = res
	return out, err
}

func runComm(spec Spec, m krylov.Method, pcName string) (*Outcome, error) {
	pr, f := spec.Problem, spec.Fabric
	factory, err := rankLocalPC(pcName)
	if err != nil {
		return nil, err
	}
	ranks := f.P()
	pt := spec.Part
	if pt.P == 0 {
		pt = partition.RowBlockByNNZ(pr.A, ranks)
	}
	engines := comm.NewEnginesOp(f, pr.A, pr.Operator(), pt, factory)
	out := &Outcome{Anchor: time.Now()}
	var tracers []*obs.Tracer
	if spec.Tracer != nil {
		tracers = make([]*obs.Tracer, ranks)
		for r, e := range engines {
			tracers[r] = spec.Tracer(r)
			e.SetTracer(tracers[r])
		}
	}
	bs := comm.Scatter(pt, pr.B)
	opt := spec.Opt
	if opt.WaitDeadline == 0 {
		opt.WaitDeadline = commWaitDeadline
	}
	// A rank that observes the cancellation leaves the solve; its peers
	// must not wait out their deadlines on its missing messages.
	if opt.Context != nil {
		defer context.AfterFunc(opt.Context, f.Abort)()
	}

	results := make([]*krylov.Result, ranks)
	start := time.Now()
	errs := comm.RunErr(engines, func(r int, e *comm.Engine) error {
		o := opt
		if r != 0 {
			o.Progress, o.Observe = nil, nil
		}
		var err error
		results[r], err = m.Solve(e, bs[r], o)
		return err
	})
	out.Solve = time.Since(start)

	for _, e := range engines {
		out.Counters = append(out.Counters, e.Counters())
	}
	if tracers != nil {
		out.Sums = make([]obs.Summary, ranks)
		for r, tr := range tracers {
			out.Sums[r] = tr.Summary()
		}
		if ranks > 1 {
			transit := f.TransitStats()
			transitNS := make([]int64, ranks)
			for r := range transitNS {
				transitNS[r] = transit[r].MeanNS()
			}
			skew := obs.AnalyzeSkewTransit(out.Sums, transitNS)
			out.Skew = &skew
		}
	}
	out.Res = results[0]
	for r, err := range errs {
		if err != nil {
			return out, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	xs := make([][]float64, ranks)
	for r := range xs {
		xs[r] = results[r].X
	}
	assembled := *results[0]
	assembled.X = pr.SourceOrder(comm.Gather(pt, xs))
	out.Res = &assembled
	return out, nil
}

// rankLocalPC is the comm runtime's preconditioner factory: each rank builds
// its PC over its own row block. Rank-local SOR is processor-block SSOR,
// PETSc's parallel PCSOR behaviour.
func rankLocalPC(name string) (comm.PCFactory, error) {
	switch name {
	case "", "none":
		return nil, nil
	case "jacobi":
		return func(a *sparse.CSR, lo, hi int) engine.Preconditioner {
			return precond.NewJacobi(a, lo, hi)
		}, nil
	case "sor":
		return func(a *sparse.CSR, lo, hi int) engine.Preconditioner {
			return precond.NewSSOR(a, lo, hi, 1.0, 1)
		}, nil
	}
	return nil, fmt.Errorf("bench: comm runs support rank-local PCs only (none, jacobi, sor), got %q", name)
}
