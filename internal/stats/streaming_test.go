package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// quantileInputs are the cross-validation corpora: random, sorted,
// reverse-sorted, constant, bimodal and uniform streams.
func quantileInputs(n int) map[string][]float64 {
	rng := rand.New(rand.NewSource(7))
	random := make([]float64, n)
	for i := range random {
		random[i] = rng.NormFloat64()*3 + 10
	}
	sorted := append([]float64(nil), random...)
	sort.Float64s(sorted)
	reversed := make([]float64, n)
	for i := range reversed {
		reversed[i] = sorted[n-1-i]
	}
	constant := make([]float64, n)
	for i := range constant {
		constant[i] = 4.7
	}
	bimodal := make([]float64, n)
	for i := range bimodal {
		if rng.Intn(2) == 0 {
			bimodal[i] = rng.NormFloat64()*0.5 - 20
		} else {
			bimodal[i] = rng.NormFloat64()*0.5 + 20
		}
	}
	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = rng.Float64() * 100
	}
	return map[string][]float64{
		"random": random, "sorted": sorted, "reversed": reversed,
		"constant": constant, "bimodal": bimodal, "uniform": uniform,
	}
}

func exactQuantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Quantile(s, q)
}

func TestHistogramQuantile(t *testing.T) {
	for name, xs := range quantileInputs(5000) {
		lo, hi := exactQuantile(xs, 0), exactQuantile(xs, 1)
		if hi == lo {
			hi = lo + 1 // constant stream: any spanning bounds work
		}
		h, err := NewHistogram(lo, hi+1e-9, 200)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range xs {
			h.Add(x)
		}
		width := (h.Hi - h.Lo) / float64(len(h.Bins))
		for _, q := range []float64{0.05, 0.5, 0.95} {
			got, err := h.Quantile(q)
			if err != nil {
				t.Fatal(err)
			}
			want := exactQuantile(xs, q)
			// The histogram resolves quantiles to within ~a bin width.
			if math.Abs(got-want) > 2*width {
				t.Errorf("%s q=%g: histogram %.4f vs exact %.4f (bin %.4f)", name, q, got, want, width)
			}
		}
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h, _ := NewHistogram(0, 10, 10)
	if _, err := h.Quantile(0.5); err == nil {
		t.Error("empty histogram quantile should error")
	}
	h.Add(-5) // underflow
	h.Add(15) // overflow
	q0, _ := h.Quantile(0.25)
	q1, _ := h.Quantile(0.95)
	if q0 != h.Lo || q1 != h.Hi {
		t.Errorf("under/overflow mass should clamp to bounds, got %g and %g", q0, q1)
	}
	// With no underflow, q=0 must report where the data actually is —
	// the lower edge of the first occupied bin — not fabricate Lo.
	h2, _ := NewHistogram(0, 10, 10)
	h2.Add(5.3)
	if q, _ := h2.Quantile(0); q != 5 {
		t.Errorf("q=0 of mass in [5,6) bin should be 5, got %g", q)
	}
}

func TestOnlineMatchesSummarize(t *testing.T) {
	for name, xs := range quantileInputs(3000) {
		var o Online
		for _, x := range xs {
			o.Add(x)
		}
		s, err := Summarize(xs)
		if err != nil {
			t.Fatal(err)
		}
		if o.N() != s.N || o.Min() != s.Min || o.Max() != s.Max {
			t.Errorf("%s: online extrema/count diverge", name)
		}
		if math.Abs(o.Mean()-s.Mean) > 1e-9*math.Max(1, math.Abs(s.Mean)) {
			t.Errorf("%s: mean %.12f vs %.12f", name, o.Mean(), s.Mean)
		}
		if math.Abs(o.StdDev()-s.StdDev) > 1e-6*math.Max(1, s.StdDev) {
			t.Errorf("%s: stddev %.12f vs %.12f", name, o.StdDev(), s.StdDev)
		}
	}
}

func TestOnlineMergeEquivalent(t *testing.T) {
	xs := quantileInputs(4000)["random"]
	var whole Online
	for _, x := range xs {
		whole.Add(x)
	}
	// Split into uneven shards, accumulate independently, merge in order.
	var merged Online
	for _, cut := range [][2]int{{0, 17}, {17, 1000}, {1000, 1001}, {1001, 4000}} {
		var shard Online
		for _, x := range xs[cut[0]:cut[1]] {
			shard.Add(x)
		}
		merged.Merge(shard)
	}
	if merged.N() != whole.N() || merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Error("merge diverges on count/extrema")
	}
	if math.Abs(merged.Mean()-whole.Mean()) > 1e-9 ||
		math.Abs(merged.Variance()-whole.Variance()) > 1e-6 {
		t.Errorf("merge diverges: mean %.12f vs %.12f, var %.9f vs %.9f",
			merged.Mean(), whole.Mean(), merged.Variance(), whole.Variance())
	}
	// Merging an empty accumulator is a no-op; merging into empty copies.
	before := merged
	merged.Merge(Online{})
	if merged != before {
		t.Error("merging empty changed the accumulator")
	}
	var fresh Online
	fresh.Merge(whole)
	if fresh != whole {
		t.Error("merging into empty should copy")
	}
	if !math.IsNaN((&Online{}).Mean()) || !math.IsNaN((&Online{}).StdDev()) {
		t.Error("empty Online should report NaN moments")
	}
}

func TestSummaryQuartiles(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.P25 != 2 || s.P75 != 4 {
		t.Errorf("quartiles of 1..5: P25=%g P75=%g, want 2 and 4", s.P25, s.P75)
	}
	if s.P25 > s.Median || s.Median > s.P75 {
		t.Error("quantile ordering broken")
	}
}
