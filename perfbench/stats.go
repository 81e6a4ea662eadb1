package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p99 from fewer than 1000 samples would be a maximum in
// disguise.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted (ascending)
// samples, and whether at least minBeyond samples lie beyond it.
func quantile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n-rank >= minBeyond
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	v, _ := quantile(sorted(xs), 0.5)
	return v
}

// rung is one rate of the serve ladder: the offered rate, the all-class
// tail latency (refused requests count as infinitely late), whether that
// percentile had enough samples beyond it, and the requests still
// outstanding when the rung's sending window closed.
type rung struct {
	Rate    float64
	TailMs  float64
	TailOK  bool
	Backlog int
}

// passes reports whether the rung meets the latency limit without a
// growing backlog. By Little's law a system keeping up with rate r at
// latency at most L holds about r·L requests in flight; more than that
// (plus one for rounding) left over at the end means the queue grew.
func (r rung) passes(limitMs float64) bool {
	return r.TailOK && r.TailMs <= limitMs && float64(r.Backlog) <= r.Rate*limitMs/1e3+1
}

// maxRate returns the highest rate of an ascending ladder that passes,
// stopping at the first rung that fails (0 when the first fails).
func maxRate(rungs []rung, limitMs float64) float64 {
	best := 0.0
	for _, r := range rungs {
		if !r.passes(limitMs) {
			break
		}
		best = r.Rate
	}
	return best
}

// runtimeSample reads the counters the run reports: heap bytes
// allocated and the CPU time split between GC and everything.
type runtimeSample struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSample{allocBytes: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64()}
}

// gcShare is the share of CPU time spent in GC between two samples.
func gcShare(a, b runtimeSample) float64 {
	if b.totalCPU <= a.totalCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
}
