// Package trace provides time-series recording and analysis utilities used
// throughout the power-neutral simulation stack: sampled signal storage,
// band/stability metrics, numerical integration of signals over time, CSV
// export and lightweight ASCII rendering for terminal reports.
//
// All series store (time, value) pairs with time in seconds and the value in
// whatever engineering unit the producer documents (volts, watts, hertz...).
package trace

import (
	"errors"
	"math"
	"sort"
)

// Series is an append-only sampled signal. Samples are expected to be
// appended in non-decreasing time order.
type Series struct {
	// Name identifies the signal (e.g. "Vc", "Pharvest").
	Name string
	// Unit is the engineering unit of Value (e.g. "V", "W", "Hz").
	Unit string

	times  []float64
	values []float64
}

// NewSeries returns an empty series with the given name and unit.
func NewSeries(name, unit string) *Series {
	return &Series{Name: name, Unit: unit}
}

// Append adds a sample. Times are not checked: the analyses assume the
// caller appends them in non-decreasing order.
func (s *Series) Append(t, v float64) {
	s.times = append(s.times, t)
	s.values = append(s.values, v)
}

// AppendDedupe adds a sample unless it exactly duplicates the last
// recorded (time, value) pair, reporting whether it was appended. Equal
// times with a *different* value are still recorded — that is how a
// zero-order-hold step change (e.g. a power drop at a brownout instant)
// is represented — but exact duplicates would bias the sample-weighted
// Mean() and bloat traces recorded across segmented integrations.
func (s *Series) AppendDedupe(t, v float64) bool {
	if n := len(s.times); n > 0 && s.times[n-1] == t && s.values[n-1] == v {
		return false
	}
	s.Append(t, v)
	return true
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.times) }

// At returns the i-th sample.
func (s *Series) At(i int) (t, v float64) { return s.times[i], s.values[i] }

// Times returns the underlying time slice. The caller must not modify it.
func (s *Series) Times() []float64 { return s.times }

// Values returns the underlying value slice. The caller must not modify it.
func (s *Series) Values() []float64 { return s.values }

// First returns the first sample. It panics on an empty series.
func (s *Series) First() (t, v float64) { return s.times[0], s.values[0] }

// Last returns the last sample. It panics on an empty series.
func (s *Series) Last() (t, v float64) {
	n := len(s.times) - 1
	return s.times[n], s.values[n]
}

// ErrEmpty is returned by analyses that need at least one sample.
var ErrEmpty = errors.New("trace: empty series")

// Min returns the minimum value, or an error for an empty series.
func (s *Series) Min() (float64, error) {
	if len(s.values) == 0 {
		return 0, ErrEmpty
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v < m {
			m = v
		}
	}
	return m, nil
}

// Max returns the maximum value, or an error for an empty series.
func (s *Series) Max() (float64, error) {
	if len(s.values) == 0 {
		return 0, ErrEmpty
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v > m {
			m = v
		}
	}
	return m, nil
}

// Mean returns the arithmetic mean of the sample values (unweighted by
// time), or an error for an empty series.
func (s *Series) Mean() (float64, error) {
	if len(s.values) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values)), nil
}

// TimeMean returns the time-weighted mean assuming zero-order hold between
// samples (a sample's value holds until the next sample time).
func (s *Series) TimeMean() (float64, error) {
	if len(s.values) == 0 {
		return 0, ErrEmpty
	}
	if len(s.values) == 1 {
		return s.values[0], nil
	}
	var area, dur float64
	for i := 0; i < len(s.times)-1; i++ {
		dt := s.times[i+1] - s.times[i]
		area += s.values[i] * dt
		dur += dt
	}
	if dur == 0 {
		return s.values[0], nil
	}
	return area / dur, nil
}

// Integral returns the trapezoidal integral of the signal over its full
// time span, e.g. energy in joules for a power series in watts.
func (s *Series) Integral() (float64, error) {
	if len(s.values) == 0 {
		return 0, ErrEmpty
	}
	var area float64
	for i := 0; i < len(s.times)-1; i++ {
		dt := s.times[i+1] - s.times[i]
		area += 0.5 * (s.values[i] + s.values[i+1]) * dt
	}
	return area, nil
}

// Interp returns the linearly interpolated value at time t. Times outside
// the sampled span clamp to the first/last value.
func (s *Series) Interp(t float64) (float64, error) {
	n := len(s.times)
	if n == 0 {
		return 0, ErrEmpty
	}
	if t <= s.times[0] {
		return s.values[0], nil
	}
	if t >= s.times[n-1] {
		return s.values[n-1], nil
	}
	// Binary search for the bracketing interval.
	i := sort.SearchFloat64s(s.times, t)
	if i > 0 && s.times[i] > t {
		i--
	}
	for i+1 < n && s.times[i+1] <= t {
		i++
	}
	t0, v0 := s.times[i], s.values[i]
	t1, v1 := s.times[i+1], s.values[i+1]
	if t1 == t0 {
		return v1, nil
	}
	frac := (t - t0) / (t1 - t0)
	return v0 + frac*(v1-v0), nil
}

// FractionWithinBand returns the time-weighted fraction of the series
// duration spent with value in [lo, hi], assuming zero-order hold.
// This implements the paper's headline stability metric: the proportion of
// time Vc spends within ±5% of the target voltage.
func (s *Series) FractionWithinBand(lo, hi float64) (float64, error) {
	if len(s.values) == 0 {
		return 0, ErrEmpty
	}
	if len(s.values) == 1 {
		if s.values[0] >= lo && s.values[0] <= hi {
			return 1, nil
		}
		return 0, nil
	}
	var in, total float64
	for i := 0; i < len(s.times)-1; i++ {
		dt := s.times[i+1] - s.times[i]
		total += dt
		if s.values[i] >= lo && s.values[i] <= hi {
			in += dt
		}
	}
	if total == 0 {
		return 0, nil
	}
	return in / total, nil
}

// FractionWithinPercent returns the time-weighted fraction of time the
// signal is within ±pct (e.g. 0.05 for 5%) of target.
func (s *Series) FractionWithinPercent(target, pct float64) (float64, error) {
	d := math.Abs(target * pct)
	return s.FractionWithinBand(target-d, target+d)
}

// Decimate returns a copy keeping every k-th sample (k >= 1), always
// retaining the final sample so the span is preserved.
func (s *Series) Decimate(k int) *Series {
	if k < 1 {
		k = 1
	}
	out := NewSeries(s.Name, s.Unit)
	for i := 0; i < len(s.times); i += k {
		out.Append(s.times[i], s.values[i])
	}
	if n := len(s.times); n > 0 && (n-1)%k != 0 {
		out.Append(s.times[n-1], s.values[n-1])
	}
	return out
}
