package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs and the
// number of samples ranked strictly beyond it. The nearest-rank definition
// always returns an observed sample, so a reported p90 is a latency some op
// actually had.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx], len(s) - 1 - idx
}

// minBeyond is how many samples must rank beyond a reported high percentile:
// with fewer, the percentile is set by a handful of outliers.
const minBeyond = 10

// tail returns the q-quantile and whether it is reportable under the
// ten-beyond rule.
func tail(xs []float64, q float64) (v float64, ok bool) {
	v, beyond := quantile(xs, q)
	return v, beyond >= minBeyond
}

// median is the middle sample, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a layer that saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Latency percentiles and throughput are taken per chunk of a run and the
// median over the chunks is reported. Host noise on a shared machine (CPU
// time stolen by other guests) comes in bursts of seconds; a burst over part
// of a run moves one chunk, not the median, where it would move a whole-run
// p90 directly.
const (
	maxRunChunks = 5
	// chunkSamples is the fewest samples in a chunk: a nearest-rank p90 of
	// 100 samples has ten beyond it.
	chunkSamples = 100
)

// runStats is the chunked summary of a timed window's successful ops.
type runStats struct {
	p50, p90   float64 // ms, median over chunks of the chunk percentile
	throughput float64 // ops/s, median over chunks
	chunks     int
	p90ok      bool // every chunk's p90 has ten samples beyond it
}

// chunkStats splits the ops, in completion order, into up to maxRunChunks
// consecutive chunks of equal count (at least chunkSamples each, or one
// chunk when there are fewer) and summarizes them. A chunk's throughput is
// its op count over the time from the previous chunk's last completion (the
// window start for the first) to its own.
func chunkStats(lat []float64, end []time.Time, start time.Time) runStats {
	n := len(lat)
	if n == 0 {
		return runStats{p50: math.NaN(), p90: math.NaN(), throughput: math.NaN()}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return end[idx[a]].Before(end[idx[b]]) })
	k := min(maxRunChunks, max(1, n/chunkSamples))
	rs := runStats{chunks: k, p90ok: true}
	var p50s, p90s, tputs []float64
	prev := start
	for c := 0; c < k; c++ {
		var xs []float64
		for _, i := range idx[c*n/k : (c+1)*n/k] {
			xs = append(xs, lat[i])
		}
		last := end[idx[(c+1)*n/k-1]]
		p90, ok := tail(xs, 0.9)
		rs.p90ok = rs.p90ok && ok
		p50s, p90s = append(p50s, median(xs)), append(p90s, p90)
		tputs = append(tputs, float64(len(xs))/last.Sub(prev).Seconds())
		prev = last
	}
	rs.p50, rs.p90, rs.throughput = median(p50s), median(p90s), median(tputs)
	return rs
}
