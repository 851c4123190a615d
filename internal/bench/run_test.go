package bench

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/krylov"
	"repro/internal/obs"
	"repro/internal/sparse"
)

func sameX(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", tag, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: differs at %d", tag, i)
		}
	}
}

// TestRunSeqAndCommP1MatchHandWiredSeq: Run on seq, and on a one-rank
// fabric, reproduces a hand-wired engine.Seq solve to the bit.
func TestRunSeqAndCommP1MatchHandWiredSeq(t *testing.T) {
	pr := Poisson7(8)
	opt := DefaultOptions(pr)
	pc, err := MakePC("jacobi", pr)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.NewSeq(pr.Operator(), pc)
	want, err := krylov.PIPEPSCG(e, pr.B, opt)
	if err != nil {
		t.Fatal(err)
	}

	seq, err := Run(Spec{Problem: pr, Method: "pipe-pscg", PC: "jacobi", Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	sameX(t, "seq", seq.Res.X, want.X)
	if *seq.Counters[0] != *e.Counters() {
		t.Fatal("seq: counters differ")
	}

	f := comm.NewFabric(1, 0)
	defer f.Close()
	p1, err := Run(Spec{Problem: pr, Method: "pipe-pscg", PC: "jacobi", Opt: opt, Fabric: f})
	if err != nil {
		t.Fatal(err)
	}
	sameX(t, "comm P=1", p1.Res.X, want.X)
}

// TestRunCommGathersAndTraces: a traced 4-rank run returns the gathered
// global iterate, one ledger and one summary per rank, and a skew report.
func TestRunCommGathersAndTraces(t *testing.T) {
	pr := Poisson7(8)
	f := comm.NewFabric(4, 0)
	out, err := Run(Spec{Problem: pr, Method: "pcg", PC: "sor", Opt: DefaultOptions(pr),
		Fabric: f, Tracer: func(r int) *obs.Tracer { return obs.New(r) }})
	if cerr := f.Close(); cerr != nil {
		t.Fatalf("fabric leak: %v", cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !out.Res.Converged || len(out.Res.X) != pr.A.Rows {
		t.Fatalf("converged=%v len(X)=%d", out.Res.Converged, len(out.Res.X))
	}
	if len(out.Counters) != 4 || len(out.Sums) != 4 || out.Skew == nil {
		t.Fatalf("counters=%d sums=%d skew=%v", len(out.Counters), len(out.Sums), out.Skew)
	}
}

// TestRunRejectsGlobalPCOnComm: comm runs build rank-local PCs only.
func TestRunRejectsGlobalPCOnComm(t *testing.T) {
	pr := Poisson7(6)
	f := comm.NewFabric(2, 0)
	defer f.Close()
	if out, err := Run(Spec{Problem: pr, Method: "pcg", PC: "icc", Opt: DefaultOptions(pr), Fabric: f}); err == nil || out != nil {
		t.Fatalf("got (%v, %v), want a set-up error", out, err)
	}
	if _, err := Run(Spec{Problem: pr, Method: "nope"}); err == nil {
		t.Fatal("unknown method must error")
	}
}

// TestRunUndoesReordering: on a reordered problem, Run returns the iterate
// in the source ordering, on seq and on comm.
func TestRunUndoesReordering(t *testing.T) {
	src := Poisson5(10)
	perm := sparse.RCMOrder(src.A)
	pr := Problem{Name: "rcm", A: sparse.PermuteSym(src.A, perm), B: make([]float64, len(src.B)),
		RelTol: src.RelTol, Perm: perm}
	sparse.PermuteVec(pr.B, src.B, perm)
	opt := DefaultOptions(pr)
	opt.RelTol = 1e-10
	for _, ranks := range []int{0, 3} {
		spec := Spec{Problem: pr, Method: "pcg", PC: "jacobi", Opt: opt}
		if ranks > 0 {
			spec.Fabric = comm.NewFabric(ranks, 0)
			defer spec.Fabric.Close()
		}
		out, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		r := make([]float64, src.A.Rows)
		src.A.MulVec(r, out.Res.X)
		var rn, bn float64
		for i := range r {
			rn += (src.B[i] - r[i]) * (src.B[i] - r[i])
			bn += src.B[i] * src.B[i]
		}
		if rel := math.Sqrt(rn / bn); rel > 1e-8 {
			t.Fatalf("ranks=%d: source-order residual %g", ranks, rel)
		}
	}
}
