package krylov

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/precond"
	"repro/internal/trace"
)

// TestContextCancelsEveryMethod: a solve whose context is already done
// returns (nil, ctx error) at its first convergence check, for every
// registered method, and its engine does not outlive the check.
func TestContextCancelsEveryMethod(t *testing.T) {
	a, b := testProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range Methods {
		opt := Defaults()
		opt.Context = ctx
		res, err := m.Solve(engine.NewSeq(a, precond.NewJacobi(a, 0, a.Rows)), b, opt)
		if res != nil || !errors.Is(err, context.Canceled) {
			t.Errorf("%s: got (%v, %v), want (nil, context.Canceled)", m.Name, res, err)
		}
	}
}

// TestContextCancelsMidSolve cancels from the progress hook at iteration 6:
// the solve stops at the next check, having run past iteration 6 but short
// of convergence.
func TestContextCancelsMidSolve(t *testing.T) {
	a, b := testProblem(t)
	for _, name := range []string{"pcg", "pipe-pscg", "ladder"} {
		m, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		opt := Defaults()
		opt.Context = ctx
		last := 0
		opt.Progress = func(hp HistPoint, _ *trace.Counters) {
			last = hp.Iteration
			if hp.Iteration >= 6 {
				cancel()
			}
		}
		e := engine.NewSeq(a, precond.NewJacobi(a, 0, a.Rows))
		res, err := m.Solve(e, b, opt)
		cancel()
		if res != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: got (%v, %v), want (nil, context.Canceled)", name, res, err)
		}
		if last < 6 || e.Counters().Iterations > last {
			t.Fatalf("%s: last check at iteration %d, %d iterations run", name, last, e.Counters().Iterations)
		}
	}
}

// TestContextCancelsLaterStage: the multi-stage solvers honour the contract
// after their first stage too. On the ill-conditioned stand-in the ladder
// steps down and hybrid enters stage 2; cancelling there must still return
// (nil, context.Canceled), not the merged partial result.
func TestContextCancelsLaterStage(t *testing.T) {
	a := illConditioned()
	b := onesRHS(a)
	for _, name := range []string{"ladder", "hybrid"} {
		m, _ := Lookup(name)
		ctx, cancel := context.WithCancel(context.Background())
		opt := Defaults()
		opt.S = 6
		opt.RelTol = 1e-9
		opt.MaxIter = 200000
		opt.Context = ctx
		last, fired := 0, false
		opt.Progress = func(hp HistPoint, c *trace.Counters) {
			// A later stage restarts the iteration numbering; a ladder
			// stepdown is also on the ledger.
			if c.LadderStepdowns > 0 || hp.Iteration < last {
				fired = true
				cancel()
			}
			last = hp.Iteration
		}
		res, err := m.Solve(seqJacobi(a), b, opt)
		cancel()
		if !fired {
			t.Fatalf("%s: never left its first stage", name)
		}
		if res != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: got (result %t, %v), want (nil, context.Canceled)", name, res != nil, err)
		}
	}
}

// TestContextIsBitNeutral: a live context changes nothing — iterate,
// history and counters match the context-free solve to the bit.
func TestContextIsBitNeutral(t *testing.T) {
	a, b := testProblem(t)
	for _, name := range []string{"pcg", "groppcg", "pipe-pr-cg", "pipe-pscg", "hybrid"} {
		m, _ := Lookup(name)
		run := func(ctx context.Context) (*Result, trace.Counters) {
			opt := Defaults()
			opt.Context = ctx
			e := engine.NewSeq(a, precond.NewJacobi(a, 0, a.Rows))
			res, err := m.Solve(e, b, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res, *e.Counters()
		}
		ctx, cancel := context.WithCancel(context.Background())
		got, gotC := run(ctx)
		cancel()
		want, wantC := run(nil)
		if got.Iterations != want.Iterations || len(got.History) != len(want.History) || gotC != wantC {
			t.Fatalf("%s: context changed the solve", name)
		}
		for i := range got.X {
			if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
				t.Fatalf("%s: iterate differs at %d", name, i)
			}
		}
	}
}

// TestRegistryTraits pins the traits callers key their set-up on.
func TestRegistryTraits(t *testing.T) {
	for _, name := range []string{"scg", "scg-s", "pipe-scg"} {
		if m, _ := Lookup(name); m.Preconditioned {
			t.Errorf("%s must be unpreconditioned", name)
		}
	}
	for _, name := range []string{"scg", "pscg", "scg-s", "pipe-scg", "pipe-pscg"} {
		if m, _ := Lookup(name); !m.SStep {
			t.Errorf("%s must consume S", name)
		}
	}
	for _, name := range []string{"pcg", "pipecg-oati", "pipe-m-cg-rr"} {
		if m, _ := Lookup(name); m.SStep || !m.Preconditioned {
			t.Errorf("%s traits wrong: %+v", name, m)
		}
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown method must error")
	}
}
