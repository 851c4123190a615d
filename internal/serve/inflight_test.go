package serve

import (
	"bufio"
	"strconv"
	"strings"
	"testing"
	"time"
)

// scrapeInflight reads solverd_inflight_jobs from the /metrics exposition.
func scrapeInflight(t *testing.T, url string) int {
	t.Helper()
	resp := mustGet(t, url+"/metrics")
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "solverd_inflight_jobs "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("no solverd_inflight_jobs sample on /metrics")
	return 0
}

// runningJobs counts retained jobs in JobRunning.
func runningJobs(s *Server) int {
	n := 0
	for _, j := range s.Jobs.List() {
		if j.State() == JobRunning {
			n++
		}
	}
	return n
}

// checkInflight scrapes the gauge between two counts of running jobs. With
// no job starting meanwhile, the counts can only fall, and the gauge must lie
// between them: a job whose result a client has seen is never in flight.
func checkInflight(t *testing.T, s *Server, url, tag string) {
	t.Helper()
	before := runningJobs(s)
	g := scrapeInflight(t, url)
	after := runningJobs(s)
	if g < after || g > before {
		t.Fatalf("%s: solverd_inflight_jobs=%d, running jobs %d..%d", tag, g, before, after)
	}
}

// awaitDone waits for a job's terminal event and checks the gauge right
// after it, as a client that just received the result would.
func awaitDone(t *testing.T, s *Server, url string, j *Job, want JobState) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never finished (state %s)", j.ID, j.State())
	}
	if st := j.State(); st != want {
		t.Fatalf("%s: state %s, want %s", j.ID, st, want)
	}
	checkInflight(t, s, url, j.ID)
}

// TestInflightGaugeAfterTerminalEvents pins the ordering of the in-flight
// gauge against job completion: after every terminal event — solo, batched,
// cancelled while running, cancelled while queued — a /metrics scrape agrees
// with the job states. One worker and a coalescing window that gathers each
// burst into one batch keep any job from starting while a check runs.
func TestInflightGaugeAfterTerminalEvents(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 8, CoalesceWidth: 4, CoalesceWindow: 100 * time.Millisecond,
	})
	submit := func(req SolveRequest) *Job {
		t.Helper()
		j, err := s.Jobs.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	small := SolveRequest{ProblemSpec: ProblemSpec{Problem: "poisson7", N: 6}, Method: "pcg"}

	solo := submit(small)
	awaitDone(t, s, ts.URL, solo, JobConverged)

	var batch []*Job
	for i := 1; i <= 3; i++ {
		req := small
		req.RHSSeed = uint64(i)
		batch = append(batch, submit(req))
	}
	for _, j := range batch {
		awaitDone(t, s, ts.URL, j, JobConverged)
	}
	if w := batch[0].BatchWidth(); w != 3 {
		t.Fatalf("batch width %d, want 3", w)
	}

	// A batch cancelled while running: an unreachable tolerance keeps its
	// three columns solving, so the gauge is checked in a steady state
	// first — it counts jobs, not busy workers.
	var long []*Job
	for i := 1; i <= 3; i++ {
		long = append(long, submit(SolveRequest{ProblemSpec: ProblemSpec{Problem: "poisson125", N: 12},
			Method: "pcg", RelTol: 1e-30, RHSSeed: uint64(i)}))
	}
	waitFor(t, func() bool { return runningJobs(s) == 3 })
	checkInflight(t, s, ts.URL, "running batch")
	// Cancelled while queued, behind the running batch: it never runs.
	queued := submit(small)
	queued.Cancel()
	for _, j := range long {
		j.Cancel()
	}
	for _, j := range long {
		awaitDone(t, s, ts.URL, j, JobCanceled)
	}
	awaitDone(t, s, ts.URL, queued, JobCanceled)
	if g := scrapeInflight(t, ts.URL); g != 0 {
		t.Fatalf("idle daemon reports %d jobs in flight", g)
	}
	if n := s.Jobs.InFlight(); n != 0 {
		t.Fatalf("InFlight()=%d when idle", n)
	}
}
