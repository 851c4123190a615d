// Command perfbench is the repository's benchmark. One run drives one
// workload closed loop for a fixed time, checks every answer, and prints the
// workload's end-to-end metrics (or, with --trace 1, its per-layer metrics)
// as the last line of standard output:
//
//	bash perfbench/run.sh --workload seq-pipe-pscg --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for why each was chosen):
//
//	seq-pipe-pscg  PIPE-PsCG solves on engine.Seq: kernel layers only
//	comm-latency   PIPE-PsCG solves on 4 goroutine ranks with 100 µs hops
//	service-mix    two clients through a cluster router to two solver shards
//
// The benchmark drives the program only through its public functions and
// reads only data the program already exposes; it adds nothing to it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// output is the result line the benchmark prints last.
type output struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// workload runs one named workload and returns its result line. Text lines
// for the reader go to w. An error means the workload could not be set up
// or run at all; a wrong answer is reported through output.Correct instead.
type workload func(cfg config, w io.Writer) (output, error)

var workloads = map[string]workload{
	"seq-pipe-pscg": runSeqWorkload,
	"comm-latency":  runCommWorkload,
	"service-mix":   runServiceWorkload,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: seq-pipe-pscg, comm-latency, service-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the timed window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1

	wl, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	w := bufio.NewWriter(os.Stdout)
	printHeader(w, cfg)
	out, err := wl(cfg, w)
	if err != nil {
		w.Flush()
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	// A window in which no op succeeded has no latency; JSON has no NaN, and
	// such a run is already marked incorrect.
	for k, v := range out.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
			out.Metrics[k] = v
			out.Correct = false
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		w.Flush()
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(w, "%s\n", line)
	if err := w.Flush(); err != nil {
		os.Exit(1)
	}
	if !out.Correct || out.Failed > 0 {
		os.Exit(1)
	}
}

// printHeader writes the run header: machine, toolchain and seed.
func printHeader(w io.Writer, cfg config) {
	l2, l3 := cacheSizes()
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "# nproc=%d GOMAXPROCS=%d cpu=%q L2=%s L3=%s go=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), l2, l3, runtime.Version())
	fmt.Fprintln(w, "# every bytes figure below is computed from array sizes, not measured;"+
		" no roofline ratio is claimed")
}

// printWorkingSet relates a workload's computed working set to the caches.
func printWorkingSet(w io.Writer, what string, bytes float64) {
	l2, l3 := cacheSizes()
	fmt.Fprintf(w, "# working set (computed): %s = %.2f MiB (L2 %s, L3 %s)\n",
		what, bytes/(1<<20), l2, l3)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSizes reads cpu0's L2 and L3 sizes from sysfs ("unknown" if absent).
func cacheSizes() (l2, l3 string) {
	l2, l3 = "unknown", "unknown"
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		switch strings.TrimSpace(string(lv)) {
		case "2":
			l2 = strings.TrimSpace(string(sz))
		case "3":
			l3 = strings.TrimSpace(string(sz))
		}
	}
	return l2, l3
}

// window measures process time, CPU and allocation over a timed interval.
type window struct {
	start time.Time
	cpu   time.Duration
	mem   runtime.MemStats
}

type windowStats struct {
	start   time.Time
	elapsed time.Duration
	cpu     time.Duration
	alloc   uint64
	gc      uint32
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func openWindow() *window {
	w := &window{}
	runtime.ReadMemStats(&w.mem)
	w.cpu = cpuTime()
	w.start = time.Now()
	return w
}

func (w *window) close() windowStats {
	el := time.Since(w.start)
	cpu := cpuTime() - w.cpu
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return windowStats{start: w.start, elapsed: el, cpu: cpu, alloc: m.TotalAlloc - w.mem.TotalAlloc, gc: m.NumGC - w.mem.NumGC}
}

// withOpCost replaces the window's CPU time and allocation with the sums of
// the ops' own costs, leaving out the benchmark's work between the ops.
func (ws windowStats) withOpCost(ops []solveOp) windowStats {
	ws.cpu, ws.alloc = 0, 0
	for _, op := range ops {
		ws.cpu += op.cost.cpu
		ws.alloc += op.cost.alloc
	}
	return ws
}

// cost is the CPU time and heap allocation of one measured call.
type cost struct {
	cpu   time.Duration
	alloc uint64
}

// measure runs fn and returns its wall time and cost. The cost is read
// outside the timed interval, so reading it does not lengthen the latency.
func measure(fn func()) (time.Duration, cost) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	fn()
	lat := time.Since(t0)
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	return lat, cost{cpu: c1 - c0, alloc: m1.TotalAlloc - m0.TotalAlloc}
}

// tally collects the ops of a timed window.
type tally struct {
	lat       []float64   // ms, successful ops
	end       []time.Time // completion of each successful op
	iters     []float64
	attempted int
	failed    int
	firstErr  error
}

func (t *tally) fail(err error) {
	t.attempted++
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) ok(latMS float64, iters int, end time.Time) {
	t.attempted++
	t.lat = append(t.lat, latMS)
	t.end = append(t.end, end)
	t.iters = append(t.iters, float64(iters))
}

// endToEnd turns a window's tally into the end-to-end metrics.
func endToEnd(w io.Writer, t *tally, ws windowStats, setups []float64) metrics {
	m := metrics{}
	m.set("setup_s", median(setups), "s")
	rs := chunkStats(t.lat, t.end, ws.start)
	m.set("latency_ms.p50", rs.p50, "ms")
	m.set("latency_ms.p90", rs.p90, "ms")
	m.set("throughput_ops_s", rs.throughput, "ops/s")
	m.set("iterations_per_op", mean(t.iters), "iters")
	ops := float64(max(t.attempted, 1))
	m.set("cpu_ms_per_op", float64(ws.cpu)/1e6/ops, "ms")
	m.set("alloc_mb_per_op", float64(ws.alloc)/1e6/ops, "MB")
	p50, _ := quantile(t.lat, 0.5)
	p90, beyond := quantile(t.lat, 0.9)
	fmt.Fprintf(w, "# latency: %d samples in %d chunks; median over chunks p50 %.3f ms, p90 %.3f ms, %.3f ops/s; "+
		"whole run p50 %.3f ms, p90 %.3f ms (%d beyond p90), %.3f ops/s\n",
		len(t.lat), rs.chunks, rs.p50, rs.p90, rs.throughput, p50, p90, beyond,
		float64(len(t.lat))/ws.elapsed.Seconds())
	if !rs.p90ok {
		fmt.Fprintf(w, "# WARNING: a chunk's p90 has fewer than %d samples beyond it\n", minBeyond)
	}
	fmt.Fprintf(w, "# error_rate %.4f (%d failed of %d attempted)\n",
		ratio(float64(t.failed), float64(t.attempted)), t.failed, t.attempted)
	if t.firstErr != nil {
		fmt.Fprintf(w, "# first failure: %v\n", t.firstErr)
	}
	fmt.Fprintf(w, "# setup_s samples: %s\n", joinFloats(setups))
	return m
}

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}

// setupRuns is how many times a run sets its workload up; setup_s is the
// median, which a single slow set-up cannot move.
const setupRuns = 15

// timeSetups runs build setupRuns times and returns each run's seconds. All
// but the last built state are released through the returned closer of each
// call; the caller releases the last.
func timeSetups[T any](build func() (T, func(), error)) (T, func(), []float64, error) {
	var (
		st      T
		release = func() {}
		secs    []float64
	)
	for i := 0; i < setupRuns; i++ {
		release()
		// Each set-up starts from a collected heap, so its time does not
		// depend on the garbage the previous one left.
		runtime.GC()
		t0 := time.Now()
		s, rel, err := build()
		if err != nil {
			return st, func() {}, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		st, release = s, rel
	}
	return st, release, secs, nil
}

// printSelfTimes prints the traced run's self time per span name, largest
// first, and writes the spans under .bench_build/spans.
func printSelfTimes(w io.Writer, rec *recorder, cfg config, ops int) {
	self := selfTimes(rec.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "# self time per op over %d traced ops (span duration minus children):\n", ops)
	for _, n := range names {
		fmt.Fprintf(w, "#   %-28s %10.3f ms\n", n, float64(self[n])/1e6/float64(max(ops, 1)))
	}
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := rec.write(path); err != nil {
		fmt.Fprintf(w, "# spans not written: %v\n", err)
		return
	}
	fmt.Fprintf(w, "# %d spans written to %s\n", len(rec.spans), path)
}
