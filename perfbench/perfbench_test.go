package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/krylov"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: quantile must sort
	}
	return xs
}

func TestQuantileTenBeyondRule(t *testing.T) {
	for _, tc := range []struct {
		n          int
		q          float64
		want       float64
		wantBeyond int
		reportable bool
	}{
		{100, 0.9, 90, 10, true},
		{99, 0.9, 90, 9, false},
		{150, 0.9, 135, 15, true},
		{10, 0.5, 5, 5, false},
		{1, 0.9, 1, 0, false},
	} {
		v, beyond := quantile(seq(tc.n), tc.q)
		if v != tc.want || beyond != tc.wantBeyond {
			t.Errorf("n=%d q=%g: got %g with %d beyond, want %g with %d", tc.n, tc.q, v, beyond, tc.want, tc.wantBeyond)
		}
		if _, ok := tail(seq(tc.n), tc.q); ok != tc.reportable {
			t.Errorf("n=%d q=%g: reportable %v, want %v", tc.n, tc.q, ok, tc.reportable)
		}
	}
	if v, _ := quantile(nil, 0.5); !math.IsNaN(v) {
		t.Errorf("quantile of no samples = %g, want NaN", v)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %g", got)
	}
}

// A burst of slow ops over one fifth of a run moves one chunk, not the
// reported p90; chunks keep ten samples beyond each p90.
func TestChunkStatsResistsABurst(t *testing.T) {
	start := time.Unix(0, 0)
	var lat []float64
	var end []time.Time
	for i := 0; i < 500; i++ {
		l := float64(i%100 + 1) // every chunk of 100 holds 1..100 ms
		if i >= 400 {
			l *= 3 // the burst: the last chunk, 3x slower
		}
		lat = append(lat, l)
		end = append(end, start.Add(time.Duration(i+1)*10*time.Millisecond))
	}
	// Completion order, not slice order, defines the chunks.
	lat[0], lat[499], end[0], end[499] = lat[499], lat[0], end[499], end[0]
	rs := chunkStats(lat, end, start)
	if rs.chunks != 5 || !rs.p90ok {
		t.Fatalf("got %d chunks, p90ok %v; want 5, true", rs.chunks, rs.p90ok)
	}
	if rs.p90 != 90 || rs.p50 != 50.5 {
		t.Errorf("p50 %g, p90 %g; want 50.5, 90 (the burst chunk is outvoted)", rs.p50, rs.p90)
	}
	if math.Abs(rs.throughput-100) > 1e-9 {
		t.Errorf("throughput %g ops/s, want 100", rs.throughput)
	}
	if whole, _ := quantile(lat, 0.9); whole <= 90 {
		t.Errorf("whole-run p90 %g should show the burst", whole)
	}
	for _, tc := range []struct{ n, chunks int }{{99, 1}, {199, 1}, {200, 2}, {2000, 5}} {
		if rs := chunkStats(seq(tc.n), make([]time.Time, tc.n), start); rs.chunks != tc.chunks {
			t.Errorf("n=%d: %d chunks, want %d", tc.n, rs.chunks, tc.chunks)
		}
	}
	if rs := chunkStats(seq(99), make([]time.Time, 99), start); rs.p90ok {
		t.Error("a 99-sample chunk has only 9 samples beyond its p90")
	}
}

func TestRouterOverheadMatchesByJobKey(t *testing.T) {
	rtt := map[string]float64{"g1-c0-2": 10, "g1-c1-0": 20, "g1-c0-9": 5}
	handler := map[string]float64{"g1-c0-2": 7, "g1-c1-0": 15, "g1-c1-7": 1}
	got := routerOverhead(rtt, handler)
	if want := []float64{3, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("router overhead %v, want %v (keys seen on one side only are dropped)", got, want)
	}
}

func TestJobKeyRoundTrip(t *testing.T) {
	if a, b := opFromKey(jobKey(2, 1, 37)), opFromKey(jobKey(2, 0, 37)); a == b || a < 0 || b < 0 {
		t.Fatalf("op ids %d and %d must be distinct and valid", a, b)
	}
	if opFromKey("warm-0") != -1 {
		t.Fatal("a key the clients did not mint must map to no op")
	}
}

func TestFlightSpansExtraction(t *testing.T) {
	d := obs.FlightDump{Jobs: []obs.JobRecord{
		{TraceID: "t1", Spans: []obs.TraceSpan{
			{Name: "job", StartUnixNS: 0, EndUnixNS: 9e6},
			{Name: "queue_wait", StartUnixNS: 0, EndUnixNS: 2e6},
			{Name: "solve", StartUnixNS: 3e6, EndUnixNS: 9e6},
		}},
		{TraceID: "t2", Spans: []obs.TraceSpan{
			{Name: "queue_wait", StartUnixNS: 0, EndUnixNS: 1e6},
			{Name: "coalesce_wait", StartUnixNS: 1e6, EndUnixNS: 1.5e6},
		}},
		{TraceID: "outside", Spans: []obs.TraceSpan{{Name: "queue_wait", StartUnixNS: 0, EndUnixNS: 7e6}}},
	}}
	got := flightSpans(d, map[string]bool{"t1": true, "t2": true}, "queue_wait", "coalesce_wait", "solve")
	want := map[string][]float64{"queue_wait": {2, 1}, "coalesce_wait": {0.5}, "solve": {6}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flight spans %v, want %v", got, want)
	}
	if all := flightSpans(d, nil, "queue_wait"); len(all["queue_wait"]) != 3 {
		t.Fatalf("a nil trace filter must keep every job, got %v", all)
	}
}

func TestProgramSpansKeepTheTree(t *testing.T) {
	d := obs.FlightDump{Jobs: []obs.JobRecord{{TraceID: "t1", Spans: []obs.TraceSpan{
		{SpanID: "a", ParentID: "client", Name: "route", Service: "solverouter", StartUnixNS: 5, EndUnixNS: 9},
	}}}}
	got := programSpans(d, map[string]int{"t1": 4}, time.Unix(0, 0))
	want := []span{{Op: 4, ID: "a", Parent: "client", Name: "solverouter.route", Start: 5, End: 9}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("program spans %+v, want %+v", got, want)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: "p", Name: "parent", Start: 0, End: 100},
		{ID: "a", Parent: "p", Name: "child", Start: 10, End: 40},
		{ID: "b", Parent: "p", Name: "child", Start: 30, End: 50},  // overlaps a
		{ID: "c", Parent: "p", Name: "child", Start: 90, End: 120}, // runs past the parent
	}
	got := selfTimes(spans)
	if got["parent"] != 100-40-10 {
		t.Errorf("parent self time %d, want 50", got["parent"])
	}
	if got["child"] != 30+20+30 {
		t.Errorf("children self time %d, want 80", got["child"])
	}
}

func TestParseProm(t *testing.T) {
	in := "# TYPE x counter\nsolverd_registry_hits_total 12\n" +
		"solverd_jobs_batched_total{mode=\"coalesced\"} 3\n\n"
	got, err := parseProm(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"solverd_registry_hits_total": 12, `solverd_jobs_batched_total{mode="coalesced"}`: 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	if _, err := parseProm(strings.NewReader("novalue\n")); err == nil {
		t.Fatal("a sample without a value must be rejected")
	}
}

func TestAnswerCheckRejectsPerturbedX(t *testing.T) {
	pr := bench.Poisson7(8)
	pc, err := bench.MakePC("jacobi", pr)
	if err != nil {
		t.Fatal(err)
	}
	b := seededRHS(1, 0, pr.A.Rows)
	e := engine.NewSeq(pr.Operator(), pc)
	res, err := krylov.PIPEPSCG(e, b, solveOptions(pr))
	if err != nil || !res.Converged {
		t.Fatalf("solve: %v", err)
	}
	if err := checkAnswer(pr.A, b, res.X); err != nil {
		t.Fatalf("converged answer rejected: %v", err)
	}
	bad := append([]float64(nil), res.X...)
	bad[len(bad)/2] += 1e-2
	if err := checkAnswer(pr.A, b, bad); err == nil {
		t.Fatal("perturbed answer accepted")
	}
	if err := checkAnswer(pr.A, b, bad[1:]); err == nil {
		t.Fatal("short answer accepted")
	}
	good := fingerprint{iters: res.Iterations, counters: []trace.Counters{*e.Counters()}, xhash: serve.XHash(res.X)}
	perturbed := good
	perturbed.xhash = serve.XHash(bad)
	if good.match(perturbed) == nil {
		t.Fatal("fingerprint match missed a perturbed x")
	}
	other := good
	other.counters = []trace.Counters{*e.Counters()}
	other.counters[0].SpMV++
	if good.match(other) == nil {
		t.Fatal("fingerprint match missed a counter difference")
	}
	if err := good.match(good); err != nil {
		t.Fatalf("identical fingerprints differ: %v", err)
	}
}

// The metric names and units the benchmark prints must be exactly those
// BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	units := func(ds []decl) map[string]string {
		out := map[string]string{}
		for _, d := range ds {
			out[d.Name] = d.Unit
		}
		return out
	}
	printed := func(m metrics) map[string]string {
		out := map[string]string{}
		for k, v := range m {
			out[k] = v.Unit
		}
		return out
	}
	t0 := &tally{}
	t0.ok(1, 1, time.Now())
	e2e := endToEnd(io.Discard, t0, windowStats{elapsed: time.Second}, []float64{1})
	if got, want := printed(e2e), units(spec.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, want)
	}
	if got, want := printed(newLayerMetrics()), units(spec.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, want)
	}
}

func TestSeededRHSIsReproducible(t *testing.T) {
	if !reflect.DeepEqual(seededRHS(5, 3, 16), seededRHS(5, 3, 16)) {
		t.Fatal("same seed and op gave different inputs")
	}
	if reflect.DeepEqual(seededRHS(5, 3, 16), seededRHS(6, 3, 16)) {
		t.Fatal("different seeds gave the same inputs")
	}
}
