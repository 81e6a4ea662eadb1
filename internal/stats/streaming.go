package stats

import "math"

// This file holds the fixed-memory streaming accumulators used by the
// trace-free observer pipeline: campaigns and long runs summarise
// distributions online instead of retaining samples.

// Online is a mergeable streaming moment accumulator: count, mean,
// variance (Welford's algorithm) and extrema in O(1) memory. Two
// accumulators built over disjoint sample streams combine exactly with
// Merge (Chan et al.'s pairwise update), so per-run accumulators can be
// reduced across a campaign; merging in a fixed order keeps the result
// bit-identical at any worker count.
//
// The zero value is an empty accumulator, ready to use.
type Online struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds one observation into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.mean, o.min, o.max = x, x, x
		o.m2 = 0
		return
	}
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
	if x < o.min {
		o.min = x
	}
	if x > o.max {
		o.max = x
	}
}

// Merge folds the other accumulator into o, as if every observation it
// absorbed had been Added to o. Merging an empty accumulator is a no-op.
func (o *Online) Merge(other Online) {
	if other.n == 0 {
		return
	}
	if o.n == 0 {
		*o = other
		return
	}
	n := o.n + other.n
	d := other.mean - o.mean
	o.mean += d * float64(other.n) / float64(n)
	o.m2 += other.m2 + d*d*float64(o.n)*float64(other.n)/float64(n)
	if other.min < o.min {
		o.min = other.min
	}
	if other.max > o.max {
		o.max = other.max
	}
	o.n = n
}

// N returns the number of observations absorbed.
func (o *Online) N() int { return o.n }

// Mean returns the running mean (NaN when empty).
func (o *Online) Mean() float64 {
	if o.n == 0 {
		return math.NaN()
	}
	return o.mean
}

// Min returns the smallest observation (NaN when empty).
func (o *Online) Min() float64 {
	if o.n == 0 {
		return math.NaN()
	}
	return o.min
}

// Max returns the largest observation (NaN when empty).
func (o *Online) Max() float64 {
	if o.n == 0 {
		return math.NaN()
	}
	return o.max
}

// Variance returns the population variance (NaN when empty).
func (o *Online) Variance() float64 {
	if o.n == 0 {
		return math.NaN()
	}
	return o.m2 / float64(o.n)
}

// StdDev returns the population standard deviation (NaN when empty).
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }

// Quantile estimates the q-quantile of the weighted observations in the
// histogram by linear interpolation within the containing bin, treating
// the weight of each bin as uniformly spread across it. Underflow mass
// is attributed to Lo and overflow mass to Hi (the histogram cannot
// resolve beyond its bounds). It returns an error when no weight has
// been recorded. Accuracy is bounded by the bin width — size the bins to
// the resolution the consumer needs.
func (h *Histogram) Quantile(q float64) (float64, error) {
	if h.total <= 0 {
		return 0, ErrEmpty
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * h.total
	cum := h.under
	// Only genuine underflow mass maps to Lo; with none, q=0 falls
	// through to the lower edge of the first bin holding weight rather
	// than fabricating a value the data never reached.
	if target <= cum && cum > 0 {
		return h.Lo, nil
	}
	width := (h.Hi - h.Lo) / float64(len(h.Bins))
	for i, w := range h.Bins {
		if w > 0 && cum+w >= target {
			frac := (target - cum) / w
			return h.Lo + (float64(i)+frac)*width, nil
		}
		cum += w
	}
	return h.Hi, nil
}
