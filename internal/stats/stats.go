// Package stats provides the small statistical toolkit the experiment
// harness needs: summary statistics, percentiles, time-weighted histograms
// (used for the paper's Fig. 13 "time spent at each operating voltage"
// analysis) and linear regression for model calibration checks.
//
// Quantiles come from two places: Quantile / Summarize give exact order
// statistics when the sample fits in memory (campaign and study
// summaries of per-run scalar metrics), and Histogram.Quantile gives
// bin-bounded error on streams of any length and ordering, including
// time-weighted observations (dwell-time summaries).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned when a computation needs at least one value.
var ErrEmpty = errors.New("stats: empty input")

// Summary holds the usual descriptive statistics of a sample. The
// Median and the P5/P25/P75/P95 percentiles together give the quantile
// bands campaign aggregation reports.
type Summary struct {
	N        int
	Min, Max float64
	Mean     float64
	StdDev   float64 // population standard deviation
	Median   float64
	P5, P95  float64
	P25, P75 float64 // interquartile band
}

// Summarize computes descriptive statistics of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(len(xs)))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.P5 = Quantile(sorted, 0.05)
	s.P95 = Quantile(sorted, 0.95)
	s.P25 = Quantile(sorted, 0.25)
	s.P75 = Quantile(sorted, 0.75)
	return s, nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of an already-sorted sample
// using linear interpolation between order statistics. It panics if sorted
// is empty.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Histogram is a fixed-bin histogram over [Lo, Hi). Weights default to 1
// per observation but AddWeighted supports time-weighted occupancy
// histograms (weight = dwell time).
type Histogram struct {
	Lo, Hi float64
	Bins   []float64 // accumulated weight per bin
	under  float64
	over   float64
	total  float64
}

// NewHistogram creates a histogram with n equal-width bins spanning
// [lo, hi). It returns an error for invalid bounds or n < 1.
func NewHistogram(lo, hi float64, n int) (*Histogram, error) {
	if n < 1 {
		return nil, fmt.Errorf("stats: histogram needs >=1 bin, got %d", n)
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("stats: histogram bounds [%g,%g) invalid", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]float64, n)}, nil
}

// RestoreHistogram rebuilds a histogram from serialised state — the
// exact accumulated bins, under/overflow and total of a previously
// built histogram (see the study-checkpoint protocol). The counters are
// taken verbatim rather than recomputed, so a restored histogram is
// bit-identical to the one that was serialised; bins are copied.
func RestoreHistogram(lo, hi float64, bins []float64, under, over, total float64) (*Histogram, error) {
	if len(bins) == 0 {
		return nil, fmt.Errorf("stats: restore of empty histogram")
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("stats: histogram bounds [%g,%g) invalid", lo, hi)
	}
	return &Histogram{
		Lo: lo, Hi: hi, Bins: append([]float64(nil), bins...),
		under: under, over: over, total: total,
	}, nil
}

// Add records x with weight 1.
func (h *Histogram) Add(x float64) { h.AddWeighted(x, 1) }

// AddWeighted records x with the given weight. Out-of-range observations
// accumulate in underflow/overflow counters and still contribute to Total.
func (h *Histogram) AddWeighted(x, w float64) {
	h.total += w
	if x < h.Lo {
		h.under += w
		return
	}
	if x >= h.Hi {
		h.over += w
		return
	}
	i := int(float64(len(h.Bins)) * (x - h.Lo) / (h.Hi - h.Lo))
	if i >= len(h.Bins) { // guard against FP edge at x ≈ Hi
		i = len(h.Bins) - 1
	}
	h.Bins[i] += w
}

// Merge folds the other histogram's accumulated weights into h,
// including under/overflow. The histograms must share bounds and bin
// count; per-run observer histograms merged in a fixed order produce a
// bit-identical aggregate at any worker count.
func (h *Histogram) Merge(other *Histogram) error {
	if other.Lo != h.Lo || other.Hi != h.Hi || len(other.Bins) != len(h.Bins) {
		return fmt.Errorf("stats: merge of mismatched histograms [%g,%g)x%d vs [%g,%g)x%d",
			h.Lo, h.Hi, len(h.Bins), other.Lo, other.Hi, len(other.Bins))
	}
	for i, w := range other.Bins {
		h.Bins[i] += w
	}
	h.under += other.under
	h.over += other.over
	h.total += other.total
	return nil
}

// Total returns the accumulated weight including under/overflow.
func (h *Histogram) Total() float64 { return h.total }

// Underflow returns the weight recorded below Lo.
func (h *Histogram) Underflow() float64 { return h.under }

// Overflow returns the weight recorded at or above Hi.
func (h *Histogram) Overflow() float64 { return h.over }

// BinCenter returns the center value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Bins))
	return h.Lo + (float64(i)+0.5)*w
}

// Fraction returns bin i's share of the total weight (0 if nothing was
// recorded).
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return h.Bins[i] / h.total
}

// ModeBin returns the index of the highest-weight bin.
func (h *Histogram) ModeBin() int {
	best := 0
	for i, w := range h.Bins {
		if w > h.Bins[best] {
			best = i
		}
	}
	_ = best
	for i, w := range h.Bins {
		if w > h.Bins[best] {
			best = i
		}
	}
	return best
}

// LinearFit holds the result of an ordinary least squares line fit y=a+bx.
type LinearFit struct {
	Intercept float64 // a
	Slope     float64 // b
	R2        float64 // coefficient of determination
}

// FitLine performs ordinary least squares on paired samples. It returns an
// error if the inputs differ in length, hold fewer than two points, or all
// x values coincide.
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: FitLine length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return LinearFit{}, fmt.Errorf("stats: FitLine needs >=2 points, got %d", len(xs))
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, errors.New("stats: FitLine degenerate x values")
	}
	b := sxy / sxx
	fit := LinearFit{Intercept: my - b*mx, Slope: b}
	if syy > 0 {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	} else {
		fit.R2 = 1
	}
	return fit, nil
}
