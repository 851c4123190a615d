package serve

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/sparse"
)

// TestUnpreconditionedIgnoresPCOnEveryPath pins one outcome for a request
// whose method applies no preconditioner but whose pc bench.MakePC rejects
// (an unknown name; mg on an uploaded matrix, which has no grid): the solo
// path, a width-2 coalesced batch and the CLI pipeline (bench.Run) all
// ignore the pc, converge, and agree on x_hash.
func TestUnpreconditionedIgnoresPCOnEveryPath(t *testing.T) {
	upload, err := bench.ProblemByName("poisson7", 6, 32)
	if err != nil {
		t.Fatal(err)
	}
	var mm bytes.Buffer
	if err := sparse.WriteMatrixMarket(&mm, upload.A); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		spec ProblemSpec
		pc   string
	}{
		{ProblemSpec{Problem: "poisson125", N: 8}, "bogus"},
		{ProblemSpec{Problem: "up"}, "mg"},
	}
	for _, c := range cases {
		for _, method := range []string{"scg", "scg-s", "pipe-scg"} {
			t.Run(c.spec.Problem+"/"+c.pc+"/"+method, func(t *testing.T) {
				req := SolveRequest{ProblemSpec: c.spec, Method: method, PC: c.pc, RHSSeed: 7}

				// Solo.
				solo := New(Config{Workers: 1, QueueDepth: 4})
				defer solo.Drain(context.Background())
				if _, _, err := solo.Registry.RegisterUpload("up", bytes.NewReader(mm.Bytes())); err != nil {
					t.Fatal(err)
				}
				sj, err := solo.Jobs.Submit(req)
				if err != nil {
					t.Fatal(err)
				}
				<-sj.Done()
				sres, err := sj.Result()
				if err != nil || sres == nil || !sres.Converged {
					t.Fatalf("solo: state %s, err %v", sj.State(), err)
				}
				want := XHash(sres.X)

				// Coalesced: a plug with another key holds the only worker
				// until both jobs are queued, so they run as one batch.
				release := make(chan struct{})
				holding := make(chan struct{})
				cfg := Config{Workers: 1, QueueDepth: 4, CoalesceWidth: 2}
				cfg.testHookBeforeRun = func(j *Job) {
					if j.Req.Method == "pcg" {
						close(holding)
						<-release
					}
				}
				gang := New(cfg)
				defer gang.Drain(context.Background())
				if _, _, err := gang.Registry.RegisterUpload("up", bytes.NewReader(mm.Bytes())); err != nil {
					t.Fatal(err)
				}
				if _, err := gang.Jobs.Submit(SolveRequest{ProblemSpec: c.spec, Method: "pcg", PC: "jacobi"}); err != nil {
					t.Fatal(err)
				}
				<-holding
				var jobs []*Job
				for range 2 {
					j, err := gang.Jobs.Submit(req)
					if err != nil {
						t.Fatal(err)
					}
					jobs = append(jobs, j)
				}
				close(release)
				for i, j := range jobs {
					<-j.Done()
					res, err := j.Result()
					if err != nil || res == nil || !res.Converged {
						t.Fatalf("batch job %d: state %s, err %v", i, j.State(), err)
					}
					if w := j.BatchWidth(); w != 2 {
						t.Errorf("batch job %d: width %d, want 2", i, w)
					}
					if got := XHash(res.X); got != want {
						t.Errorf("batch job %d: x_hash %s, want solo %s", i, got, want)
					}
				}

				// CLI pipeline over the same operator and right-hand side.
				entry, err := solo.Registry.Acquire(c.spec)
				if err != nil {
					t.Fatal(err)
				}
				defer solo.Registry.Release(entry)
				pr := entry.Problem()
				pr.B = rhsFor(pr, req.RHSSeed)
				opt := bench.DefaultOptions(pr)
				opt.S, opt.MaxIter = 3, 100000
				out, err := bench.Run(bench.Spec{Problem: pr, Method: method, PC: c.pc, Opt: opt})
				if err != nil || !out.Res.Converged {
					t.Fatalf("bench.Run: err %v", err)
				}
				if got := XHash(out.Res.X); got != want {
					t.Errorf("bench.Run: x_hash %s, want solo %s", got, want)
				}
			})
		}
	}
}
