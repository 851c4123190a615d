package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/krylov"
	"repro/internal/par"
)

// newTestServer builds a server with a small config and an httptest front.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		drainCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.Jobs.Drain(drainCtx)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeStatus(t *testing.T, resp *http.Response) JobStatus {
	t.Helper()
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSolveSyncConverges(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		ProblemSpec: ProblemSpec{Problem: "poisson7", N: 6},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	st := decodeStatus(t, resp)
	if st.State != JobConverged || !st.Converged {
		t.Fatalf("state=%s converged=%v error=%q", st.State, st.Converged, st.Error)
	}
	if st.XHash == "" || st.Iterations == 0 {
		t.Fatalf("missing result detail: %+v", st)
	}
	if st.Method != "resilience-ladder" {
		t.Fatalf("default method = %q, want resilience-ladder", st.Method)
	}
}

// TestServeBitIdentical is the acceptance gate: a solve submitted through
// the daemon produces a bit-identical iterate to the same problem run
// through the CLI path (what cmd/pipescg -runtime seq executes). The
// reference is wired by hand — engine.NewSeq plus the registry's solver —
// and deliberately NOT through bench.Run: the daemon solves through
// bench.Run, and a reference sharing that code path would prove nothing.
func TestServeBitIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	for _, method := range []string{"pipe-pscg", "pcg", "ladder"} {
		resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
			ProblemSpec: ProblemSpec{Problem: "poisson7", N: 6},
			Method:      method, PC: "jacobi", IncludeX: true,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", method, resp.StatusCode)
		}
		st := decodeStatus(t, resp)
		if st.State != JobConverged {
			t.Fatalf("%s: state=%s error=%q", method, st.State, st.Error)
		}

		// CLI path: same problem, PC, options, solver — fresh engine.
		pr, err := bench.ProblemByName("poisson7", 6, 32)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := bench.MakePC("jacobi", pr)
		if err != nil {
			t.Fatal(err)
		}
		m, err := krylov.Lookup(method)
		if err != nil {
			t.Fatal(err)
		}
		opt := bench.DefaultOptions(pr)
		opt.S = 3
		opt.MaxIter = 100000
		res, err := m.Solve(engine.NewSeq(pr.A, pc), pr.B, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.X) != len(st.X) {
			t.Fatalf("%s: X length %d vs %d", method, len(res.X), len(st.X))
		}
		for i := range res.X {
			if math.Float64bits(res.X[i]) != math.Float64bits(st.X[i]) {
				t.Fatalf("%s: iterate differs at %d: %x vs %x",
					method, i, math.Float64bits(res.X[i]), math.Float64bits(st.X[i]))
			}
		}
		if got, want := st.XHash, XHash(res.X); got != want {
			t.Fatalf("%s: x_hash %s vs local %s", method, got, want)
		}
	}
}

func TestSolveCommRuntimeMatchesSeq(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	seq := decodeStatus(t, postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		ProblemSpec: ProblemSpec{Problem: "poisson7", N: 6},
		Method:      "pipe-pscg", PC: "jacobi", IncludeX: true,
	}))
	par := decodeStatus(t, postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		ProblemSpec: ProblemSpec{Problem: "poisson7", N: 6},
		Method:      "pipe-pscg", PC: "jacobi", IncludeX: true, Ranks: 4,
	}))
	if seq.State != JobConverged || par.State != JobConverged {
		t.Fatalf("seq=%s par=%s (err %q / %q)", seq.State, par.State, seq.Error, par.Error)
	}
	if len(par.X) != len(seq.X) {
		t.Fatalf("X length %d vs %d", len(par.X), len(seq.X))
	}
	// Distributed reductions re-associate sums, so require agreement to the
	// tolerance, not bitwise.
	for i := range seq.X {
		if d := math.Abs(seq.X[i] - par.X[i]); d > 1e-8 {
			t.Fatalf("comm iterate off at %d by %g", i, d)
		}
	}
}

func TestQueueFullRejectsWith429(t *testing.T) {
	// One worker held at the gate + one queue slot: the third submission
	// deterministically sees a full queue.
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1,
		testHookBeforeRun: func(*Job) { <-gate },
	})
	defer close(gate)
	small := SolveRequest{ProblemSpec: ProblemSpec{Problem: "poisson7", N: 5}}

	// First job: accepted, picked up by the worker, parked at the gate.
	resp := postJSON(t, ts.URL+"/v1/jobs", small)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: status %d", resp.StatusCode)
	}
	resp.Body.Close()
	waitFor(t, func() bool { return s.Jobs.QueueDepth() == 0 })

	// Second job: accepted, fills the single queue slot.
	resp = postJSON(t, ts.URL+"/v1/jobs", small)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Third: queue full → 429 + Retry-After.
	resp = postJSON(t, ts.URL+"/v1/jobs", small)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	resp.Body.Close()
	if s.Metrics.jobsRejected.Load() != 1 {
		t.Fatalf("jobsRejected=%d want 1", s.Metrics.jobsRejected.Load())
	}
}

func TestJobTimeoutCancels(t *testing.T) {
	// The worker sleeps past the job's 1ms budget before running it: the
	// deadline (measured from submission) is over at pickup, so the job is
	// canceled without touching the registry.
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 4,
		testHookBeforeRun: func(*Job) { time.Sleep(20 * time.Millisecond) },
	})
	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		ProblemSpec: ProblemSpec{Problem: "poisson7", N: 5},
		TimeoutMS:   1,
	})
	st := decodeStatus(t, resp)
	if st.State != JobCanceled {
		t.Fatalf("state=%s, want canceled (err %q)", st.State, st.Error)
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancelRunningJob cancels a job mid-solve, on the sequential engine and
// on 4 goroutine ranks. The tolerance is unreachable, so the solve is still
// running when the cancel lands: the job must end canceled, promptly, and
// leave no goroutine behind — no rank stuck on a peer that left.
func TestCancelRunningJob(t *testing.T) {
	par.Default() // the kernel pool's workers are not a leak
	for _, ranks := range []int{1, 4} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			runtime.GC()
			base := runtime.NumGoroutine()
			s := New(Config{Workers: 1, QueueDepth: 4})
			ts := httptest.NewServer(s.Handler())

			resp := postJSON(t, ts.URL+"/v1/jobs", SolveRequest{
				ProblemSpec: ProblemSpec{Problem: "poisson125", N: 16},
				RelTol:      1e-30, Ranks: ranks,
			})
			var sub struct {
				ID string `json:"id"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()

			// Wait for the first progress event, then cancel mid-solve.
			er, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/events")
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(er.Body)
			sawProgress := false
			for sc.Scan() {
				var ev Event
				if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
					t.Fatal(err)
				}
				if ev.Type == "progress" {
					sawProgress = true
					cr := postJSON(t, ts.URL+"/v1/jobs/"+sub.ID+"/cancel", struct{}{})
					cr.Body.Close()
					break
				}
			}
			er.Body.Close()
			if !sawProgress {
				t.Fatal("no progress event before stream end")
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				st := decodeStatus(t, mustGet(t, ts.URL+"/v1/jobs/"+sub.ID))
				if st.State == JobCanceled {
					// A cancelled solve reports no partial iterate.
					if st.XHash != "" || st.Iterations != 0 {
						t.Fatalf("canceled job carries a partial result: %d iterations, x_hash %q", st.Iterations, st.XHash)
					}
					break
				}
				if st.State != JobRunning || time.Now().After(deadline) {
					t.Fatalf("job in state %s after cancel (error %q)", st.State, st.Error)
				}
				time.Sleep(10 * time.Millisecond)
			}

			ts.Close()
			dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.Jobs.Drain(dctx)
			http.DefaultTransport.(*http.Transport).CloseIdleConnections()
			deadline = time.Now().Add(5 * time.Second)
			for {
				runtime.GC()
				if runtime.NumGoroutine() <= base {
					break
				}
				if time.Now().After(deadline) {
					var sb strings.Builder
					pprof.Lookup("goroutine").WriteTo(&sb, 1)
					t.Fatalf("goroutine leak: %d > baseline %d\n%s", runtime.NumGoroutine(), base, sb.String())
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}

func TestEventStreamShape(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	resp := postJSON(t, ts.URL+"/v1/solve?stream=1", SolveRequest{
		ProblemSpec: ProblemSpec{Problem: "poisson7", N: 6},
	})
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var types []string
	var last Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		types = append(types, ev.Type)
		last = ev
	}
	if len(types) < 3 {
		t.Fatalf("too few events: %v", types)
	}
	if types[0] != "queued" {
		t.Fatalf("first event %q, want queued", types[0])
	}
	if last.Type != "result" || last.State != JobConverged {
		t.Fatalf("last event %+v", last)
	}
	progress := 0
	for _, ty := range types {
		if ty == "progress" {
			progress++
		}
	}
	if progress == 0 {
		t.Fatal("no progress events streamed")
	}
}

func TestUploadThenSolve(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	// 1D Laplacian, 50 unknowns, in MatrixMarket symmetric form.
	var mm strings.Builder
	n := 50
	fmt.Fprintf(&mm, "%%%%MatrixMarket matrix coordinate real symmetric\n%d %d %d\n", n, n, 2*n-1)
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&mm, "%d %d 2.0\n", i, i)
		if i > 1 {
			fmt.Fprintf(&mm, "%d %d -1.0\n", i, i-1)
		}
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/matrices/lap1d", strings.NewReader(mm.String()))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	resp.Body.Close()

	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		ProblemSpec: ProblemSpec{Problem: "lap1d"}, Method: "pcg",
	}))
	if st.State != JobConverged {
		t.Fatalf("state=%s error=%q", st.State, st.Error)
	}

	mr := mustGet(t, ts.URL+"/v1/matrices")
	var ml MatricesResponse
	if err := json.NewDecoder(mr.Body).Decode(&ml); err != nil {
		t.Fatal(err)
	}
	mr.Body.Close()
	if len(ml.Uploads) != 1 || ml.Uploads[0] != "lap1d" {
		t.Fatalf("uploads %v", ml.Uploads)
	}
	if len(ml.Resident) == 0 {
		t.Fatal("no resident entries after a solve")
	}
}

// TestUploadOutOfRangeEntryIs400 uploads a MatrixMarket body whose entry
// lies outside the header's shape: the daemon answers 400 (the parser
// reports it instead of panicking out of the handler and dropping the
// connection) and keeps serving uploads and solves afterwards.
func TestUploadOutOfRangeEntryIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	put := func(body string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/matrices/x", strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("upload: %v", err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := put("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 4.0\n3 1 -1.0\n"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range upload: status %d, want 400", resp.StatusCode)
	}
	if resp := put("%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 4.0\n2 2 4.0\n2 1 -1.0\n"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("valid upload after a rejected one: status %d", resp.StatusCode)
	}
	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		ProblemSpec: ProblemSpec{Problem: "x"}, Method: "pcg",
	}))
	if st.State != JobConverged {
		t.Fatalf("solve after a rejected upload: state=%s error=%q", st.State, st.Error)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		ProblemSpec: ProblemSpec{Problem: "poisson7", N: 5},
	}))
	if st.State != JobConverged {
		t.Fatalf("warmup solve: %s (%s)", st.State, st.Error)
	}

	hr := mustGet(t, ts.URL+"/healthz")
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", hr.StatusCode)
	}
	hr.Body.Close()

	mr := mustGet(t, ts.URL+"/metrics")
	body := new(strings.Builder)
	if _, err := bufio.NewReader(mr.Body).WriteTo(body); err != nil {
		t.Fatal(err)
	}
	mr.Body.Close()
	out := body.String()
	for _, want := range []string{
		"solverd_jobs_total{outcome=\"converged\"} 1",
		"solverd_queue_depth 0",
		"solverd_inflight_jobs 0",
		"solverd_registry_entries 1",
		"solverd_registry_misses_total 1",
		"solverd_request_seconds_bucket{le=\"+Inf\"} 1",
		"solverd_request_seconds_count 1",
		"solverd_kernel_spmv",
		"solverd_kernel_iterations",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}
