package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeKnown(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || s.Min != 2 || s.Max != 9 {
		t.Errorf("summary %+v", s)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Errorf("mean %g", s.Mean)
	}
	if math.Abs(s.StdDev-2) > 1e-12 { // classic example: σ = 2
		t.Errorf("stddev %g, want 2", s.StdDev)
	}
	if math.Abs(s.Median-4.5) > 1e-12 {
		t.Errorf("median %g", s.Median)
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Error("empty summarize should error")
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	cases := map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.75: 4, 1: 5, -1: 1, 2: 5}
	for q, want := range cases {
		if got := Quantile(sorted, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", q, got, want)
		}
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.5); got != 5 {
		t.Errorf("interpolated median %g", got)
	}
}

func TestQuickQuantileMonotone(t *testing.T) {
	f := func(xs []float64, q1, q2 float64) bool {
		if len(xs) == 0 {
			return true
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, v := range sorted {
			if math.IsNaN(v) {
				return true
			}
		}
		a := math.Mod(math.Abs(q1), 1)
		b := math.Mod(math.Abs(q2), 1)
		if a > b {
			a, b = b, a
		}
		return Quantile(sorted, a) <= Quantile(sorted, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(1)            // bin 0
	h.Add(9.999)        // bin 4
	h.Add(-3)           // underflow
	h.Add(10)           // overflow (half-open)
	h.AddWeighted(5, 3) // bin 2 with weight 3
	if h.Total() != 7 {
		t.Errorf("total %g", h.Total())
	}
	if h.Underflow() != 1 || h.Overflow() != 1 {
		t.Errorf("under %g over %g", h.Underflow(), h.Overflow())
	}
	if h.Bins[2] != 3 {
		t.Errorf("bin 2 weight %g", h.Bins[2])
	}
	if h.ModeBin() != 2 {
		t.Errorf("mode bin %d", h.ModeBin())
	}
	if c := h.BinCenter(2); c != 5 {
		t.Errorf("bin 2 center %g", c)
	}
	if f := h.Fraction(2); math.Abs(f-3.0/7) > 1e-12 {
		t.Errorf("fraction %g", f)
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Error("empty range accepted")
	}
}
