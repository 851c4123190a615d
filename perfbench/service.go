package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// The service-mix traffic. Two closed-loop clients; most jobs solve the hot
// operator, one in coldOdds solves an operator from a rotation larger than a
// shard's registry cache, and client 0 re-uploads a small matrix every
// uploadEvery jobs and then solves on it uploadSolves times.
const (
	serviceClients = 2
	hotN           = 16
	hotRows        = hotN * hotN * hotN
	coldOdds       = 8
	uploadEvery    = 40
	uploadSolves   = 2
	uploadSide     = 16 // uploaded matrices are shuffled uploadSide² 2D Laplacians
	uploadCount    = 3
	shardCache     = 4 // registry entries per shard; the cold rotation is larger
	hotSeeds       = 24
	coldSeeds      = 2
)

// coldSpecs is the cold-operator rotation: ten operators against a cache of
// four per shard, so cold jobs rebuild and evict.
var coldSpecs = []serve.ProblemSpec{
	{Problem: "poisson7", N: 8}, {Problem: "poisson7", N: 9}, {Problem: "poisson7", N: 10},
	{Problem: "poisson7", N: 11}, {Problem: "poisson7", N: 12}, {Problem: "poisson7", N: 13},
	{Problem: "poisson5", N: 40}, {Problem: "poisson5", N: 48}, {Problem: "poisson5", N: 56},
	{Problem: "poisson5", N: 64},
}

func uploadName(u int) string { return fmt.Sprintf("bench-upload-%d", u) }

// answer is a solo reference solve of one (operator, rhs_seed).
type answer struct {
	iters    int
	xhash    string
	counters trace.Counters
}

func refKey(spec serve.ProblemSpec, rhs uint64) string { return fmt.Sprintf("%s#%d", spec.Key(), rhs) }

// traffic is the seeded input of a service-mix run: right-hand-side seed
// pools per operator and the uploaded matrices.
type traffic struct {
	hot     serve.ProblemSpec
	pools   map[string][]uint64 // spec key → rhs seeds
	uploads [][]byte            // MatrixMarket bodies
}

func newTraffic(seed int64) (*traffic, error) {
	rng := rand.New(rand.NewSource(seed))
	tr := &traffic{hot: serve.ProblemSpec{Problem: "poisson7", N: hotN}, pools: map[string][]uint64{}}
	draw := func(spec serve.ProblemSpec, k int) {
		for i := 0; i < k; i++ {
			tr.pools[spec.Key()] = append(tr.pools[spec.Key()], rng.Uint64()|1)
		}
	}
	draw(tr.hot, hotSeeds)
	for _, s := range coldSpecs {
		draw(s, coldSeeds)
	}
	for u := 0; u < uploadCount; u++ {
		var buf bytes.Buffer
		if err := sparse.WriteMatrixMarket(&buf, shuffledLaplacian(rng, uploadSide)); err != nil {
			return nil, err
		}
		tr.uploads = append(tr.uploads, buf.Bytes())
		draw(serve.ProblemSpec{Problem: uploadName(u)}, coldSeeds)
	}
	return tr, nil
}

// shuffledLaplacian is a 2D 5-point Laplacian on a side×side grid under a
// random relabeling, with a seeded diagonal shift that keeps it SPD: the
// ordering profile of an uploaded unstructured operator.
func shuffledLaplacian(rng *rand.Rand, side int) *sparse.CSR {
	n := side * side
	relabel := rng.Perm(n)
	id := func(x, y int) int { return relabel[y*side+x] }
	b := sparse.NewBuilder(n, n)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			i := id(x, y)
			b.Add(i, i, 4+rng.Float64())
			if x > 0 {
				b.Add(i, id(x-1, y), -1)
				b.Add(id(x-1, y), i, -1)
			}
			if y > 0 {
				b.Add(i, id(x, y-1), -1)
				b.Add(id(x, y-1), i, -1)
			}
		}
	}
	return b.Build()
}

// request is the solve request every service-mix job sends.
func request(spec serve.ProblemSpec, rhs uint64, key, traceparent string) serve.SolveRequest {
	return serve.SolveRequest{ProblemSpec: spec, Method: "pipe-pscg", PC: "jacobi", S: blockS,
		RelTol: 1e-5, RHSSeed: rhs, JobKey: key, TraceParent: traceparent}
}

// referenceAnswers solves every (operator, rhs_seed) of the traffic once, solo,
// on a fresh server with coalescing off.
func referenceAnswers(tr *traffic) (map[string]answer, error) {
	srv := serve.New(serve.Config{QueueDepth: 1024, Log: quietLog()})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(ctx) // the reference jobs have all finished; nothing is left to drain
	}()
	for u, body := range tr.uploads {
		if _, _, err := srv.Registry.RegisterUpload(uploadName(u), bytes.NewReader(body)); err != nil {
			return nil, fmt.Errorf("reference upload: %w", err)
		}
	}
	type pending struct {
		key string
		job *serve.Job
	}
	var jobs []pending
	for _, spec := range tr.specs() {
		for _, rhs := range tr.pools[spec.Key()] {
			j, err := srv.Jobs.Submit(request(spec, rhs, "", ""))
			if err != nil {
				return nil, fmt.Errorf("reference submit: %w", err)
			}
			jobs = append(jobs, pending{refKey(spec, rhs), j})
		}
	}
	refs := map[string]answer{}
	for _, p := range jobs {
		<-p.job.Done()
		res, err := p.job.Result()
		if err != nil || res == nil || !res.Converged {
			return nil, fmt.Errorf("reference %s did not converge: %v", p.key, err)
		}
		refs[p.key] = answer{iters: res.Iterations, xhash: serve.XHash(res.X), counters: p.job.Counters()}
	}
	return refs, nil
}

func (tr *traffic) specs() []serve.ProblemSpec {
	out := append([]serve.ProblemSpec{tr.hot}, coldSpecs...)
	for u := range tr.uploads {
		out = append(out, serve.ProblemSpec{Problem: uploadName(u)})
	}
	return out
}

func quietLog() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// handlerTimer wraps a shard's handler: when on, it times every solve request
// and keys the time by the request's job key. It reads the body the client
// sent and hands the handler an identical copy.
type handlerTimer struct {
	next http.Handler
	on   atomic.Bool
	rec  *recorder

	mu    sync.Mutex
	byKey map[string]float64 // ms
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() || r.URL.Path != "/v1/solve" {
		h.next.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, "read body", http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	var req serve.SolveRequest
	_ = json.Unmarshal(body, &req) // a malformed body is the handler's to reject
	start, t0 := h.rec.now(), time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	parent := ""
	if tc, ok := obs.ParseTraceparent(req.TraceParent); ok {
		parent = tc.SpanID.String()
	}
	h.rec.add(span{Op: opFromKey(req.JobKey), ID: h.rec.newID(), Parent: parent,
		Name: "bench.shard_handler", Start: start, End: h.rec.now()})
	h.mu.Lock()
	h.byKey[req.JobKey] = float64(d.Nanoseconds()) / 1e6
	h.mu.Unlock()
}

// jobKey names client c's k-th job of the deployment's gen-th client run:
// idempotency keys must never repeat, or the shard would attach the job to
// the earlier one instead of solving it. opFromKey recovers an op id.
func jobKey(gen, c, k int) string { return fmt.Sprintf("g%d-c%d-%d", gen, c, k) }

func opFromKey(key string) int {
	var g, c, k int
	if _, err := fmt.Sscanf(key, "g%d-c%d-%d", &g, &c, &k); err != nil {
		return -1
	}
	return g*10_000_000 + c*1_000_000 + k
}

// deployment is one running service-mix deployment: two shards behind a router,
// all on loopback sockets in this process.
type deployment struct {
	shards  []*serve.Server
	timers  []*handlerTimer
	servers []*http.Server
	urls    []string
	router  *cluster.Router
	rURL    string
	client  *http.Client
	refs    map[string]answer
	gen     int // client runs so far
	errs    chan error
	wg      sync.WaitGroup
}

func (d *deployment) listen(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	d.servers = append(d.servers, hs)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		if err := hs.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
			d.errs <- err
		}
	}()
	return "http://" + l.Addr().String(), nil
}

// close stops the router, drains the shards and shuts every listener down.
func (d *deployment) close() {
	if d.router != nil {
		d.router.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range d.shards {
		_ = s.Drain(ctx) // shard HTTP is owned by d.servers; Drain only stops the jobs
	}
	for _, hs := range d.servers {
		_ = hs.Shutdown(ctx) // in-flight requests have all returned by now
	}
	d.wg.Wait()
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
}

// deploy starts the shards and the router, uploads the matrices through the
// router (which replicates them), computes the reference answers and warms
// the hot operator.
func deploy(tr *traffic, rec *recorder) (*deployment, error) {
	// One slot per listener (two shards and the router), so a failing
	// Serve never blocks.
	d := &deployment{errs: make(chan error, 3)}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	var shardCfgs []cluster.ShardConfig
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("s%d", i)
		srv := serve.New(serve.Config{ShardID: name, Workers: 1, CacheEntries: shardCache,
			CoalesceWidth: 2, CoalesceWindow: 2 * time.Millisecond,
			TraceSeed: uint64(i + 1), FlightJobs: 16384, Log: quietLog()})
		ht := &handlerTimer{next: srv.Handler(), rec: rec, byKey: map[string]float64{}}
		url, err := d.listen(ht)
		if err != nil {
			return nil, err
		}
		d.shards, d.timers, d.urls = append(d.shards, srv), append(d.timers, ht), append(d.urls, url)
		shardCfgs = append(shardCfgs, cluster.ShardConfig{Name: name, URL: url})
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Shards: shardCfgs, TraceSeed: 7,
		FlightJobs: 16384, Log: quietLog()})
	if err != nil {
		return nil, err
	}
	d.router = rt
	if d.rURL, err = d.listen(rt.Handler()); err != nil {
		return nil, err
	}
	d.client = &http.Client{Timeout: 60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serviceClients}}
	for u, body := range tr.uploads {
		if _, err := d.upload(u, body); err != nil {
			return nil, err
		}
	}
	if d.refs, err = referenceAnswers(tr); err != nil {
		return nil, err
	}
	for c := 0; c < serviceClients; c++ {
		rhs := tr.pools[tr.hot.Key()][c]
		rep, err := d.solve(request(tr.hot, rhs, fmt.Sprintf("warm-%d", c), ""))
		if err == nil {
			err = d.check(tr.hot, rhs, rep)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	ok = true
	return d, nil
}

// jobReply is the part of a job status the benchmark checks.
type jobReply struct {
	State      serve.JobState     `json:"state"`
	Iterations int                `json:"iterations"`
	XHash      string             `json:"x_hash"`
	Error      string             `json:"error"`
	TraceID    string             `json:"trace_id"`
	Counters   map[string]float64 `json:"counters"`
}

func (d *deployment) solve(req serve.SolveRequest) (jobReply, error) {
	var rep jobReply
	body, err := json.Marshal(req)
	if err != nil {
		return rep, err
	}
	resp, err := d.client.Post(d.rURL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return rep, err
	}
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("solve %s: HTTP %d: %s", req.JobKey, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("solve %s: %w", req.JobKey, err)
	}
	if rep.State != serve.JobConverged {
		return rep, fmt.Errorf("solve %s: state %s: %s", req.JobKey, rep.State, rep.Error)
	}
	return rep, nil
}

func (d *deployment) upload(u int, body []byte) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodPut, d.rURL+"/v1/matrices/"+uploadName(u), bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	el := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		return 0, fmt.Errorf("upload %s: HTTP %d: %s", uploadName(u), resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return el, nil
}

// check compares a job's answer with the solo reference for its operator and
// right-hand side: same x_hash, iterations and counters, bit for bit.
func (d *deployment) check(spec serve.ProblemSpec, rhs uint64, rep jobReply) error {
	ref, ok := d.refs[refKey(spec, rhs)]
	if !ok {
		return fmt.Errorf("no reference for %s", refKey(spec, rhs))
	}
	if rep.XHash != ref.xhash || rep.Iterations != ref.iters {
		return fmt.Errorf("%s: x_hash %s iterations %d, reference %s %d",
			refKey(spec, rhs), rep.XHash, rep.Iterations, ref.xhash, ref.iters)
	}
	for _, f := range ref.counters.Fields() {
		if rep.Counters[f.Name] != f.Value {
			return fmt.Errorf("%s: counter %s %g, reference %g", refKey(spec, rhs), f.Name, rep.Counters[f.Name], f.Value)
		}
	}
	return nil
}

// jobRecord is one finished client job.
type jobRecord struct {
	key      string
	hot      bool
	latMS    float64
	end      time.Time // when the reply was checked
	iters    int
	traceID  string
	counters map[string]float64
	err      error
}

type uploadRecord struct {
	latMS float64
	err   error
}

// clientLoop is one closed-loop client: it sends its next job only after the
// previous one returned, until the deadline.
func (d *deployment) clientLoop(tr *traffic, gen, c int, seed int64, deadline time.Time, rec *recorder) ([]jobRecord, []uploadRecord) {
	rng := rand.New(rand.NewSource(seed*31 + int64(c)))
	ids := obs.NewIDGen(uint64(seed)*977 + uint64(c) + 1)
	var jobs []jobRecord
	var ups []uploadRecord
	onUpload, left := 0, 0
	for k := 0; time.Now().Before(deadline); k++ {
		if c == 0 && k%uploadEvery == uploadEvery-1 {
			onUpload = (k / uploadEvery) % len(tr.uploads)
			el, err := d.upload(onUpload, tr.uploads[onUpload])
			ups = append(ups, uploadRecord{latMS: float64(el.Nanoseconds()) / 1e6, err: err})
			left = uploadSolves
		}
		spec := tr.hot
		switch {
		case left > 0:
			spec = serve.ProblemSpec{Problem: uploadName(onUpload)}
			left--
		case rng.Intn(coldOdds) == 0:
			spec = coldSpecs[rng.Intn(len(coldSpecs))]
		}
		pool := tr.pools[spec.Key()]
		rhs := pool[rng.Intn(len(pool))]
		key := jobKey(gen, c, k)
		tp := ""
		var tc obs.TraceContext
		if rec != nil {
			tc = ids.NewTrace()
			tp = tc.Traceparent()
		}
		start := rec.now()
		t0 := time.Now()
		rep, err := d.solve(request(spec, rhs, key, tp))
		lat := time.Since(t0)
		if rec != nil {
			rec.add(span{Op: opFromKey(key), ID: tc.SpanID.String(), Name: "bench.client_submit",
				Start: start, End: rec.now()})
		}
		if err == nil {
			err = d.check(spec, rhs, rep)
		}
		jobs = append(jobs, jobRecord{key: key, hot: spec == tr.hot, latMS: float64(lat.Nanoseconds()) / 1e6,
			end: time.Now(), iters: rep.Iterations, traceID: rep.TraceID, counters: rep.Counters, err: err})
	}
	return jobs, ups
}

// runClients drives every client concurrently until the deadline.
func (d *deployment) runClients(tr *traffic, seed int64, deadline time.Time, rec *recorder) ([]jobRecord, []uploadRecord) {
	jobs := make([][]jobRecord, serviceClients)
	ups := make([][]uploadRecord, serviceClients)
	d.gen++
	var wg sync.WaitGroup
	wg.Add(serviceClients)
	for c := 0; c < serviceClients; c++ {
		go func(c int) {
			defer wg.Done()
			jobs[c], ups[c] = d.clientLoop(tr, d.gen, c, seed, deadline, rec)
		}(c)
	}
	wg.Wait()
	var allJ []jobRecord
	var allU []uploadRecord
	for c := range jobs {
		allJ = append(allJ, jobs[c]...)
		allU = append(allU, ups[c]...)
	}
	return allJ, allU
}

func tallyJobs(jobs []jobRecord, ups []uploadRecord) *tally {
	t := &tally{}
	for _, j := range jobs {
		if j.err != nil {
			t.fail(j.err)
			continue
		}
		t.ok(j.latMS, j.iters, j.end)
	}
	for _, u := range ups {
		if u.err != nil {
			t.fail(u.err)
		} else {
			t.attempted++
		}
	}
	return t
}

func runServiceWorkload(cfg config, w io.Writer) (output, error) {
	tr, err := newTraffic(cfg.seed)
	if err != nil {
		return output{}, err
	}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder(time.Now())
	}
	d, release, setupS, err := timeSetups(func() (*deployment, func(), error) {
		d, err := deploy(tr, rec)
		if err != nil {
			return nil, nil, err
		}
		return d, d.close, nil
	})
	if err != nil {
		return output{}, err
	}
	defer release()
	printWorkingSet(w, fmt.Sprintf("hot operator poisson7 N=%d, PIPE-PsCG vectors (Table I memory + x, b)", hotRows),
		(pipePsCGVectors(blockS)+2)*float64(hotRows)*8)
	fmt.Fprintf(w, "# traffic: %d closed-loop clients, 1 in %d jobs cold (%d-operator rotation, cache %d per shard), "+
		"upload every %d jobs of client 0, coalescing width 2\n",
		serviceClients, coldOdds, len(coldSpecs), shardCache, uploadEvery)

	dur := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		win := openWindow()
		jobs, ups := d.runClients(tr, cfg.seed, time.Now().Add(dur), nil)
		ws := win.close()
		t := tallyJobs(jobs, ups)
		if err := d.failure(); err != nil {
			return output{}, err
		}
		return output{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
			Metrics: endToEnd(w, t, ws, setupS)}, nil
	}
	return d.traced(cfg, w, tr, rec, dur)
}

// failure reports a listener that stopped serving during the run.
func (d *deployment) failure() error {
	select {
	case err := <-d.errs:
		return fmt.Errorf("listener failed: %w", err)
	default:
		return nil
	}
}

// traced is service-mix's traced run: an untraced half, then a traced half
// with the shard handler timers on and a client trace context on every job,
// followed by the flight dumps and /metrics of every shard and the router.
func (d *deployment) traced(cfg config, w io.Writer, tr *traffic, rec *recorder, dur time.Duration) (output, error) {
	m := newLayerMetrics()
	win := openWindow()
	plainJ, plainU := d.runClients(tr, cfg.seed, time.Now().Add(dur/2), nil)
	ws := win.close()

	before, err := d.scrape()
	if err != nil {
		return output{}, err
	}
	for _, ht := range d.timers {
		ht.on.Store(true)
	}
	rec.reset() // set-up spans are not part of the traced window
	tracedJ, tracedU := d.runClients(tr, cfg.seed, time.Now().Add(dur/2), rec)
	for _, ht := range d.timers {
		ht.on.Store(false)
	}
	after, err := d.scrape()
	if err != nil {
		return output{}, err
	}
	t, tt := tallyJobs(plainJ, plainU), tallyJobs(tracedJ, tracedU)
	if err := d.failure(); err != nil {
		return output{}, err
	}
	fmt.Fprintf(w, "# traced half: %d jobs, every x_hash, iteration count and counter set checked against the solo references\n",
		len(tracedJ))

	// Client-side and handler-side times, matched by job key.
	traces := map[string]int{}
	rtt := map[string]float64{}
	for _, j := range tracedJ {
		if j.err == nil {
			traces[j.traceID] = opFromKey(j.key)
			rtt[j.key] = j.latMS
		}
	}
	handler := map[string]float64{}
	var handlerMS []float64
	for _, ht := range d.timers {
		ht.mu.Lock()
		for k, v := range ht.byKey {
			handler[k] = v
			if _, ok := rtt[k]; ok {
				handlerMS = append(handlerMS, v)
			}
		}
		ht.mu.Unlock()
	}
	m.put("serve.handler_ms.p50", median(handlerMS))
	m.put("cluster.router_overhead_ms.p50", median(routerOverhead(rtt, handler)))

	// Flight dumps: the shards' queue/coalesce/solve spans, the solver phase
	// summaries of every traced job, and the router's route/attempt spans.
	inWindow := map[string]bool{}
	for id := range traces {
		inWindow[id] = true
	}
	durs := map[string][]float64{}
	var sums [][]obs.Summary
	var spmvGang, gramGang []float64
	for _, url := range append(append([]string(nil), d.urls...), d.rURL) {
		var dump obs.FlightDump
		if err := d.getJSON(url+"/v1/debug/flight", &dump); err != nil {
			return output{}, err
		}
		for name, v := range flightSpans(dump, inWindow, "queue_wait", "coalesce_wait", "solve") {
			durs[name] = append(durs[name], v...)
		}
		for _, s := range programSpans(dump, traces, rec.base) {
			rec.add(s)
		}
		gangs := map[int64]bool{}
		for _, jr := range dump.Jobs {
			if !inWindow[jr.TraceID] || len(jr.Ranks) == 0 {
				continue
			}
			sums = append(sums, jr.Ranks)
			ph := jr.Ranks[0].Phases
			if ph[obs.PhaseBlockSpMV].Count > 0 && !gangs[jr.AnchorUnixNS] {
				gangs[jr.AnchorUnixNS] = true
				spmvGang = append(spmvGang, float64(ph[obs.PhaseBlockSpMV].TotalNS)/1e6)
				gramGang = append(gramGang, float64(ph[obs.PhaseBlockGram].TotalNS)/1e6)
			}
		}
	}
	m.put("serve.queue_wait_ms.p50", median0(durs["queue_wait"]))
	m.put("serve.coalesce_wait_ms.p50", median0(durs["coalesce_wait"]))
	m.put("serve.solve_ms.p50", median0(durs["solve"]))
	m.put("blockcg.block_spmv_ms", mean0(spmvGang))
	m.put("blockcg.block_gram_ms", mean0(gramGang))
	phaseMetrics(m, sums)
	fmt.Fprintf(w, "# flight: %d traced jobs with solver summaries, %d coalesced gangs\n", len(sums), len(spmvGang))

	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta("solverd_registry_hits_total"), delta("solverd_registry_misses_total")
	m.put("serve.registry_hit_ratio", ratio(hits, hits+misses))
	co, solo := delta(`solverd_jobs_batched_total{mode="coalesced"}`), delta(`solverd_jobs_batched_total{mode="solo"}`)
	m.put("serve.coalesced_ratio", ratio(co, co+solo))
	m.put("serve.rejected_total", delta(`solverd_jobs_total{outcome="rejected"}`))
	m.put("cluster.retries_total", delta("cluster_retries_total"))
	m.put("cluster.failovers_total", delta("cluster_failovers_total"))
	var upMS []float64
	for _, u := range tracedU {
		if u.err == nil {
			upMS = append(upMS, u.latMS)
		}
	}
	m.put("serve.upload_ms.p50", median0(upMS))

	// Krylov counts over the hot operator's jobs; PCG on the same operator
	// solved directly for the time ratio and Table I.
	var pipeC trace.Counters
	for _, j := range append(plainJ, tracedJ...) {
		if j.err == nil && j.hot {
			c := countersFromMap(j.counters)
			pipeC.Add(&c)
		}
	}
	counterMetrics(m, pipeC, blockS, hotRows)
	pool := tr.pools[tr.hot.Key()]
	sr, err := newSeqRun(hotN, func(i, rows int) []float64 { return seededRHS(int64(pool[i]), i, rows) })
	if err != nil {
		return output{}, err
	}
	pipeOps, pcgOps, timeRatio := pcgRatio(sr)
	pt := tallyOps(append(pipeOps, pcgOps...))
	pcgC := sumCounters(pcgOps)
	m.put("krylov.pcg_time_ratio", timeRatio)
	printTableI(w, blockS, hotRows, map[string]trace.Counters{"pipe-pscg": pipeC, "pcg": pcgC})
	if err := kernelMetrics(m, bench.Poisson7(hotN), blockS, cfg.seed); err != nil {
		return output{}, err
	}
	m.put("obs.tracing_overhead_ratio", median(tt.lat)/median(t.lat))
	m.put("runtime.gc_cycles_per_op", ratio(float64(ws.gc), float64(t.attempted)))
	printSelfTimes(w, rec, cfg, len(tracedJ))
	fmt.Fprintf(w, "# design check: router overhead p50 %.3f ms + shard queue wait p50 %.3f ms of a %.3f ms round trip\n",
		m["cluster.router_overhead_ms.p50"].Value, m["serve.queue_wait_ms.p50"].Value, median(tt.lat))
	failed := t.failed + tt.failed + pt.failed
	return output{Correct: failed == 0, Attempted: t.attempted + tt.attempted + pt.attempted,
		Failed: failed, Metrics: m}, nil
}

func median0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func mean0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return mean(xs)
}

func (d *deployment) getJSON(url string, v any) error {
	resp, err := d.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape sums the /metrics samples of every shard and the router by series.
func (d *deployment) scrape() (map[string]float64, error) {
	out := map[string]float64{}
	for _, url := range append(append([]string(nil), d.urls...), d.rURL) {
		resp, err := d.client.Get(url + "/metrics")
		if err != nil {
			return nil, err
		}
		vals, err := parseProm(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s/metrics: %w", url, err)
		}
		for k, v := range vals {
			out[k] += v
		}
	}
	return out, nil
}

// parseProm reads Prometheus text exposition into series → value.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("sample %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

func countersFromMap(m map[string]float64) trace.Counters {
	return trace.Counters{
		SpMV: int(m["spmv"]), PCApply: int(m["pc_apply"]), Allreduce: int(m["allreduce"]),
		Iallreduce: int(m["iallreduce"]), ReduceWords: int(m["reduce_words"]),
		HaloExchanges: int(m["halo_exchanges"]), Flops: m["flops"], Iterations: int(m["iterations"]),
	}
}
