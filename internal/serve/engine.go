package serve

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math"
	"time"

	"repro/internal/audit"
	"repro/internal/bench"
	"repro/internal/comm"
	"repro/internal/krylov"
	"repro/internal/obs"
	"repro/internal/trace"
)

// jobEventCapacity and jobLedgerCapacity bound each rank's tracer rings for
// service jobs. Phase and overlap aggregates accumulate independently of ring
// size — only the raw event/reduction tails are bounded — and every retained
// job keeps its merged summary, so small rings keep RetainJobs × ranks memory
// negligible.
const (
	jobEventCapacity  = 64
	jobLedgerCapacity = 256
)

// saneRel sanitizes a residual norm for the JSON event boundary:
// encoding/json refuses NaN and ±Inf, and an encoder error inside the NDJSON
// stream drops the event and tears the stream down. A non-finite norm comes
// back as (0, true) — omitted from the wire, flagged as diverged — so the
// event always encodes.
func saneRel(v float64) (rel float64, diverged bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, true
	}
	return v, false
}

// XHash is the FNV-1a 64 digest of an iterate's raw float64 bits — the
// bit-identity fingerprint the service returns with every result, so a
// client can compare a daemon solve against a CLI solve without shipping
// the vector.
func XHash(x []float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// rhsFor resolves a job's right-hand side: the problem's canonical b, or —
// when the request carries a non-zero RHSSeed — a deterministic synthetic
// vector from a splitmix64 stream, uniform in [-1,1), in the operator's row
// ordering. The function is the ONLY producer of seeded RHS vectors, so a
// seed names the same system on the solo path, the comm path, and inside a
// coalesced block solve — the hook solverbench's -rhs mode uses to compare
// batched iterates bitwise against unbatched baselines.
func rhsFor(pr bench.Problem, seed uint64) []float64 {
	if seed == 0 {
		return pr.B
	}
	b := make([]float64, len(pr.B))
	s := seed
	for i := range b {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		b[i] = float64(z>>11)/(1<<52) - 1
	}
	return b
}

// jobContext derives a job's solve context. The budget is per job, not per
// solve: time spent waiting in the queue counts, so an overloaded service
// sheds deadline-blown work instead of running it late.
func (m *Manager) jobContext(j *Job) (context.Context, context.CancelFunc) {
	timeout := m.cfg.MaxJobRuntime
	if j.Req.TimeoutMS > 0 {
		timeout = time.Duration(j.Req.TimeoutMS) * time.Millisecond
	}
	return context.WithDeadline(j.ctx, j.submitted.Add(timeout))
}

// options are the solver options the job's request asks for. The solver
// polls ctx at every convergence check, so cancellation lands within one
// check; per-check progress events carry the recovery ledger alongside the
// residual, so a stream shows degradation as it happens.
func (j *Job) options(pr bench.Problem, ctx context.Context) krylov.Options {
	opt := bench.DefaultOptions(pr)
	opt.S = j.Req.S
	opt.MaxIter = j.Req.MaxIter
	if j.Req.RelTol > 0 {
		opt.RelTol = j.Req.RelTol
	}
	opt.ReplaceEvery = j.Req.ReplaceEvery
	opt.Context = ctx
	opt.Progress = func(hp krylov.HistPoint, c *trace.Counters) {
		ev := Event{Type: "progress", Job: j.ID, Iteration: hp.Iteration,
			ReduceIndex: hp.ReduceIndex, Recoveries: c.RecoveryEvents()}
		// The monitor records the history point (and fires this hook) BEFORE
		// its divergence check, so a NaN/Inf residual reaches this boundary
		// on every divergent solve. json.Marshal fails on non-finite floats;
		// sanitize here so the event survives instead of tearing the stream.
		ev.RelRes, ev.Diverged = saneRel(hp.RelRes)
		j.emit(ev)
	}
	return opt
}

// run executes one accepted job end to end: pin the operator, check a
// preconditioner out of its pool (seq, preconditioned methods only — see
// Entry.methodPC) or reuse the cached partition (ranks>1), solve under the
// job deadline through bench.Run — the pipeline `pipescg` runs, so the
// iterate is bit-identical to the CLI's — classify the outcome, and fold the
// job's counters into the service aggregate.
func (m *Manager) run(j *Job) {
	defer func() { m.met.ObserveLatency(time.Since(j.submitted).Seconds()) }()

	ctx, cancelTimeout := m.jobContext(j)
	defer cancelTimeout()

	// A job cancelled while queued never touches the registry.
	if ctx.Err() != nil {
		m.finishJob(j, JobCanceled, nil, ctx.Err())
		return
	}
	j.start(1)
	m.met.noteBatch(1)

	// Method "auto" delegates selection to the stability tuner: the decision
	// (made once, here — never mid-solve) names the concrete method, s and
	// replacement cadence this job runs, from the fingerprint's record when
	// one exists. The start event carries it so a streaming client sees the
	// selection before the first progress line.
	method := j.Req.Method
	startEv := Event{Type: "start", Job: j.ID, State: JobRunning, Method: method}
	var dec *tuneDecision
	if method == MethodAuto {
		dec = m.tuner.Resolve(j.Req)
		j.mu.Lock()
		j.tune = dec
		j.mu.Unlock()
		method = dec.Method
		startEv.TunedMethod = dec.Method
		startEv.TunerWarmStart = dec.WarmStart
	}
	j.emit(startEv)

	entry, err := m.reg.Acquire(j.Req.ProblemSpec)
	if err != nil {
		m.finishJob(j, JobFailed, nil, err)
		return
	}
	defer m.reg.Release(entry)
	pr := entry.Problem()
	pr.B = rhsFor(pr, j.Req.RHSSeed)

	spec := bench.Spec{Problem: pr, Method: method, PC: j.Req.PC,
		Opt: j.options(pr, ctx),
		Tracer: func(r int) *obs.Tracer {
			return obs.New(r, obs.WithCapacity(jobEventCapacity, jobLedgerCapacity))
		}}
	if dec != nil {
		spec.Opt.S = dec.S
		spec.Opt.ReplaceEvery = dec.ReplaceEvery
		// Match the audit harness: under the unpreconditioned norm the drift
		// probe's true ‖b−A·x‖/‖b‖ and the monitor's recurrence residual
		// estimate the same quantity, so their ratio is a clean drift signal.
		spec.Opt.Norm = krylov.NormUnpreconditioned
	}
	var da *audit.DriftAuditor
	if ranks := j.Req.Ranks; ranks > 1 {
		// The goroutine-rank runtime over the entry's cached nnz-balanced
		// partition and a fresh fabric. The receive deadline (and Run's wait
		// deadline) keep a rank whose peers unwound from hanging.
		spec.Part = entry.Partition(ranks)
		spec.Fabric = comm.NewFabric(ranks, 0).WithRecvTimeout(2*time.Second, 3)
		if m.cfg.testFabricFault != nil {
			// Test hook: inject fabric faults (e.g. a straggler rank's send jitter)
			// into service solves so the skew detector can be validated end to
			// end against a known-degraded rank.
			spec.Fabric.WithFault(m.cfg.testFabricFault)
		}
	} else {
		_, pc, err := entry.methodPC(method, j.Req.PC)
		if err != nil {
			m.finishJob(j, JobFailed, nil, err)
			return
		}
		defer entry.ReleasePC(j.Req.PC, pc)
		spec.Pooled = pc
		// Auto jobs carry the audit harness's drift probe: every few monitor
		// checks it recomputes the true residual through the raw CSR kernel —
		// never the engine, so the job's counter ledger (and its
		// bit-identity with the CLI path) is untouched. The max
		// true/recurrence ratio is the tuner's stability signal and lands on
		// the result event as DriftRatio.
		if dec != nil {
			da = audit.NewDriftAuditor(pr.A, pr.B, spec.Opt.S, audit.DefaultParams())
			spec.Opt.Observe = da.Observe
		}
	}

	out, err := bench.Run(spec)
	if spec.Fabric != nil && spec.Fabric.Close() != nil {
		// A cancelled SPMD solve legitimately leaves mailbox entries behind;
		// count it, don't fail the drain.
		m.met.fabricLeaks.Add(1)
	}
	if da != nil {
		j.mu.Lock()
		j.driftRatio = da.Report().MaxRatio
		j.mu.Unlock()
	}
	var res *krylov.Result
	if out != nil {
		res = out.Res
		m.record(j, out)
	}
	m.classify(j, ctx, res, err)
}

// record folds a finished solve's per-rank counters, trace summaries and
// skew analysis into the job and the service aggregate. The skew analysis is
// purely observational (it reads finished summaries); past the threshold it
// is flagged in the flight recorder.
func (m *Manager) record(j *Job, out *bench.Outcome) {
	sum := obs.MergeSummaries(out.Sums)
	j.mu.Lock()
	j.counters = *out.Counters[0]
	j.obsSum = sum
	j.rankSums = out.Sums
	j.skew = out.Skew
	j.anchorNS = out.Anchor.UnixNano()
	j.mu.Unlock()
	for _, c := range out.Counters {
		m.met.AddCounters(c)
	}
	m.met.AddObs(sum)
	if skew := out.Skew; skew != nil {
		m.met.noteSkew(*skew)
		if skew.StragglerRank >= 0 && skew.MaxScore >= m.cfg.SkewThreshold {
			m.flight.RecordEvent(obs.FlightEvent{
				UnixNS: time.Now().UnixNano(), Kind: "rank_skew", TraceID: j.TraceID(),
				Attrs: map[string]string{
					"job":            j.ID,
					"straggler_rank": fmt.Sprintf("%d", skew.StragglerRank),
					"score":          fmt.Sprintf("%.3f", skew.MaxScore),
				},
			})
		}
	}
}

// classify maps a solve outcome onto the job's terminal state and emits the
// result event.
func (m *Manager) classify(j *Job, ctx context.Context, res *krylov.Result, err error) {
	switch {
	case ctx.Err() != nil:
		m.finishJob(j, JobCanceled, res, ctx.Err())
	case err != nil:
		m.finishJob(j, JobFailed, res, err)
	case res != nil && res.Converged:
		m.finishJob(j, JobConverged, res, nil)
	default:
		m.finishJob(j, JobFailed, res, fmt.Errorf("serve: solve ended without convergence"))
	}
}

// finishJob records the terminal state, tallies metrics and emits the result
// event (with the iterate's bit-fingerprint, and the iterate itself when the
// submission asked for it).
func (m *Manager) finishJob(j *Job, state JobState, res *krylov.Result, err error) {
	ev := Event{Type: "result", Job: j.ID, State: state}
	if res != nil {
		ev.Method = res.Method
		ev.Converged = res.Converged
		ev.Iterations = res.Iterations
		ev.RelRes, ev.Diverged = saneRel(res.RelRes)
		ev.Diverged = ev.Diverged || res.Diverged
		if res.X != nil {
			ev.XHash = XHash(res.X)
			if j.Req.IncludeX {
				ev.X = res.X
			}
		}
	}
	if err != nil {
		ev.Error = err.Error()
	}
	j.mu.Lock()
	j.res, j.err = res, err
	overlap := j.obsSum.Overlap
	if j.batchWidth > 1 {
		ev.BatchWidth = j.batchWidth
	}
	dec, drift := j.tune, j.driftRatio
	runStart, coalesceAt, coalesceNS := j.runStart, j.coalesceAt, j.coalesceNS
	anchorNS, rankSums, skew := j.anchorNS, j.rankSums, j.skew
	j.mu.Unlock()
	if overlap.Posted > 0 {
		ev.OverlapEfficiency = overlap.HiddenFraction()
	}
	if dec != nil {
		ev.TunedMethod = dec.Method
		ev.TunerWarmStart = dec.WarmStart
		if drift > 0 && !math.IsInf(drift, 0) {
			ev.DriftRatio = drift
		}
		// A canceled job teaches the tuner nothing — cancellation is
		// operational, not numerical — so only real outcomes are recorded.
		if state != JobCanceled {
			hidden := -1.0 // unmeasured: no posted reductions
			if overlap.Posted > 0 {
				hidden = overlap.HiddenFraction()
			}
			m.tuner.Record(dec, res, drift, hidden)
		}
	}
	m.met.countJob(state)

	lvl := slog.LevelInfo
	if state != JobConverged {
		lvl = slog.LevelWarn
	}
	attrs := []any{
		"job", j.ID, "trace_id", j.TraceID(),
		"method", j.Req.Method, "ranks", j.Req.Ranks,
		"outcome", string(state),
		"duration", time.Since(j.submitted).Round(time.Microsecond),
	}
	if res != nil {
		attrs = append(attrs, "iterations", res.Iterations)
	}
	if overlap.Posted > 0 {
		attrs = append(attrs, "overlap_efficiency", overlap.HiddenFraction())
	}
	if err != nil {
		attrs = append(attrs, "error", err.Error())
	}
	m.cfg.Log.Log(context.Background(), lvl, "job finished", attrs...)

	// Reconstruct the job's span tree and fold it into the flight recorder
	// before Done closes, so a client that observed completion can already
	// read the record from /v1/debug/flight.
	traceID := j.TraceID()
	now := time.Now()
	jobSpanID := j.tctx.SpanID.String()
	spans := []obs.TraceSpan{{
		TraceID: traceID, SpanID: jobSpanID, ParentID: j.parentSpan,
		Name: "job", Service: "solverd",
		StartUnixNS: j.submitted.UnixNano(), EndUnixNS: now.UnixNano(),
		Attrs: map[string]string{"job": j.ID, "method": j.Req.Method, "outcome": string(state)},
	}}
	if !runStart.IsZero() {
		spans = append(spans, obs.TraceSpan{
			TraceID: traceID, SpanID: m.ids.NewSpanID().String(), ParentID: jobSpanID,
			Name: "queue_wait", Service: "solverd",
			StartUnixNS: j.submitted.UnixNano(), EndUnixNS: runStart.UnixNano(),
		})
	}
	if !coalesceAt.IsZero() {
		spans = append(spans, obs.TraceSpan{
			TraceID: traceID, SpanID: m.ids.NewSpanID().String(), ParentID: jobSpanID,
			Name: "coalesce_wait", Service: "solverd",
			StartUnixNS: coalesceAt.UnixNano(), EndUnixNS: coalesceAt.UnixNano() + coalesceNS,
		})
	}
	solveSpanID := ""
	if anchorNS != 0 {
		solveSpanID = m.ids.NewSpanID().String()
		sa := map[string]string{"ranks": fmt.Sprintf("%d", j.Req.Ranks)}
		if skew != nil && skew.StragglerRank >= 0 {
			sa["skew_max"] = fmt.Sprintf("%.3f", skew.MaxScore)
			sa["skew_rank"] = fmt.Sprintf("%d", skew.StragglerRank)
		}
		spans = append(spans, obs.TraceSpan{
			TraceID: traceID, SpanID: solveSpanID, ParentID: jobSpanID,
			Name: "solve", Service: "solverd",
			StartUnixNS: anchorNS, EndUnixNS: now.UnixNano(), Attrs: sa,
		})
	}
	m.flight.RecordJob(obs.JobRecord{
		Job: j.ID, TraceID: traceID, Outcome: string(state),
		Spans: spans, SolveSpanID: solveSpanID,
		AnchorUnixNS: anchorNS, Ranks: rankSums,
	})

	j.finish(state, ev)
	// Completion is a retention event: without this, a backlog finishing
	// after the last submission (every drain, every Kill) keeps jobs and
	// their idempotency keys past the retention bound forever — Submit's
	// trim stops at the live oldest job and never runs again.
	m.trim()
}
