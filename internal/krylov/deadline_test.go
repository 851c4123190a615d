package krylov_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/blockcg"
	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/krylov"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/precond"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// pipelinedMethods are the registry rows that post non-blocking reductions,
// so every one of their waits goes through Options.WaitDeadline.
var pipelinedMethods = []string{"groppcg", "pipecg", "pipecg3", "pipecg-oati",
	"pipe-pr-cg", "pipe-m-cg-rr", "pipe-scg", "pipe-pscg", "hybrid", "ladder"}

// deadlineRun is one solve's observable outcome: per column (a gang has
// several) the iterate, history and counter ledger, plus any runtime-specific
// figure (sim's virtual-time breakdown).
type deadlineRun struct {
	x      [][]float64
	hist   [][]krylov.HistPoint
	fields [][]trace.Field
	extra  any
}

func (r *deadlineRun) add(res *krylov.Result, c *trace.Counters) {
	r.x = append(r.x, res.X)
	r.hist = append(r.hist, res.History)
	r.fields = append(r.fields, c.Fields())
}

// TestWaitDeadlineIsBitNeutral solves every pipelined method with no wait
// deadline and with a 10 s one on each runtime — seq (traced and untraced),
// sim, comm at P=1 and P=4, and a width-2 gang over engine.Seq — and
// requires the iterate, the history and every counter to match to the bit.
// A deadline that never expires must leave no trace in the numerics or the
// ledger; on sim it must also leave the virtual-time breakdown unchanged.
func TestWaitDeadlineIsBitNeutral(t *testing.T) {
	a := grid.NewSquare(10, grid.Star5).Laplacian()
	b := grid.OnesRHS(a)
	jacobi := func(a *sparse.CSR, lo, hi int) engine.Preconditioner { return precond.NewJacobi(a, lo, hi) }

	seq := func(traced bool) func(krylov.Method, krylov.Options) (*deadlineRun, error) {
		return func(m krylov.Method, opt krylov.Options) (*deadlineRun, error) {
			e := engine.NewSeq(a, jacobi(a, 0, a.Rows))
			if traced {
				e.Tr = obs.New(0)
			}
			res, err := m.Solve(e, b, opt)
			if err != nil {
				return nil, err
			}
			out := &deadlineRun{}
			out.add(res, e.Counters())
			return out, nil
		}
	}
	runtimes := map[string]func(m krylov.Method, opt krylov.Options) (*deadlineRun, error){
		"seq":        seq(false),
		"seq-traced": seq(true),
		"sim": func(m krylov.Method, opt krylov.Options) (*deadlineRun, error) {
			e := sim.NewEngine(a, jacobi(a, 0, a.Rows))
			res, err := m.Solve(e, b, opt)
			if err != nil {
				return nil, err
			}
			out := &deadlineRun{extra: e.Evaluate(sim.CrayXC40(), 64)}
			out.add(res, e.Counters())
			return out, nil
		},
		"comm-p1": commRunner(a, b, 1, jacobi),
		"comm-p4": commRunner(a, b, 4, jacobi),
		"gang-seq": func(m krylov.Method, opt krylov.Options) (*deadlineRun, error) {
			b2 := make([]float64, len(b))
			for i := range b2 {
				b2[i] = float64(i%7) - 3
			}
			cols := []blockcg.Column{{B: b, Opt: opt}, {B: b2, Opt: opt}}
			out := &deadlineRun{}
			for j, r := range blockcg.Solve(engine.NewSeq(a, jacobi(a, 0, a.Rows)), m.Solve, cols) {
				if r.Err != nil {
					return nil, fmt.Errorf("column %d: %w", j, r.Err)
				}
				out.add(r.Res, &r.Counters)
			}
			return out, nil
		},
	}

	for _, name := range pipelinedMethods {
		m, err := krylov.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for rt, run := range runtimes {
			t.Run(name+"/"+rt, func(t *testing.T) {
				opt := krylov.Defaults()
				opt.MaxIter = 500
				base, err := run(m, opt)
				if err != nil {
					t.Fatalf("no deadline: %v", err)
				}
				opt.WaitDeadline = 10 * time.Second
				got, err := run(m, opt)
				if err != nil {
					t.Fatalf("10 s deadline: %v", err)
				}
				for j := range base.x {
					if !sameBits(base.x[j], got.x[j]) {
						t.Errorf("column %d: iterate differs", j)
					}
					if !sameHistory(base.hist[j], got.hist[j]) {
						t.Errorf("column %d: history differs", j)
					}
					if !reflect.DeepEqual(base.fields[j], got.fields[j]) {
						t.Errorf("column %d: counters differ:\n%v\n%v", j, base.fields[j], got.fields[j])
					}
				}
				if !reflect.DeepEqual(base.extra, got.extra) {
					t.Errorf("runtime figure differs: %+v vs %+v", base.extra, got.extra)
				}
			})
		}
	}
}

// commRunner solves on p goroutine ranks and reports the gathered iterate,
// rank 0's history and every rank's ledger (as extra).
func commRunner(a *sparse.CSR, b []float64, p int, pcf comm.PCFactory) func(krylov.Method, krylov.Options) (*deadlineRun, error) {
	return func(m krylov.Method, opt krylov.Options) (*deadlineRun, error) {
		f := comm.NewFabric(p, 0)
		defer f.Close()
		pt := partition.RowBlockByNNZ(a, p)
		engines := comm.NewEngines(f, a, pt, pcf)
		bs := comm.Scatter(pt, b)
		results := make([]*krylov.Result, p)
		errs := comm.RunErr(engines, func(r int, e *comm.Engine) error {
			var err error
			results[r], err = m.Solve(e, bs[r], opt)
			return err
		})
		xs := make([][]float64, p)
		var ledgers [][]trace.Field
		for r, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("rank %d: %w", r, err)
			}
			xs[r] = results[r].X
			ledgers = append(ledgers, engines[r].Counters().Fields())
		}
		res := *results[0]
		res.X = comm.Gather(pt, xs)
		out := &deadlineRun{extra: ledgers}
		out.add(&res, engines[0].Counters())
		return out, nil
	}
}

func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

func sameHistory(x, y []krylov.HistPoint) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i].Iteration != y[i].Iteration || x[i].ReduceIndex != y[i].ReduceIndex ||
			math.Float64bits(x[i].RelRes) != math.Float64bits(y[i].RelRes) {
			return false
		}
	}
	return true
}
