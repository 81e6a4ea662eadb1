package trace

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func mkSeries(pts ...[2]float64) *Series {
	s := NewSeries("test", "V")
	for _, p := range pts {
		s.Append(p[0], p[1])
	}
	return s
}

func TestMinMaxMean(t *testing.T) {
	s := mkSeries([2]float64{0, 3}, [2]float64{1, 1}, [2]float64{2, 5})
	if m, _ := s.Min(); m != 1 {
		t.Errorf("min %g", m)
	}
	if m, _ := s.Max(); m != 5 {
		t.Errorf("max %g", m)
	}
	if m, _ := s.Mean(); m != 3 {
		t.Errorf("mean %g", m)
	}
	empty := NewSeries("e", "")
	if _, err := empty.Min(); err != ErrEmpty {
		t.Error("empty min should error")
	}
	if _, err := empty.Mean(); err != ErrEmpty {
		t.Error("empty mean should error")
	}
}

func TestTimeMeanZeroOrderHold(t *testing.T) {
	// Value 0 for 1 s, then 10 for 9 s: time mean = 9.
	s := mkSeries([2]float64{0, 0}, [2]float64{1, 10}, [2]float64{10, 10})
	m, err := s.TimeMean()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-9) > 1e-12 {
		t.Errorf("time mean %g, want 9", m)
	}
	// Unweighted mean differs.
	um, _ := s.Mean()
	if math.Abs(um-20.0/3) > 1e-12 {
		t.Errorf("mean %g", um)
	}
}

func TestIntegralTrapezoid(t *testing.T) {
	// y = t on [0, 2]: integral = 2.
	s := mkSeries([2]float64{0, 0}, [2]float64{1, 1}, [2]float64{2, 2})
	i, err := s.Integral()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(i-2) > 1e-12 {
		t.Errorf("integral %g, want 2", i)
	}
}

func TestInterp(t *testing.T) {
	s := mkSeries([2]float64{0, 0}, [2]float64{10, 100})
	cases := map[float64]float64{-5: 0, 0: 0, 5: 50, 10: 100, 15: 100}
	for tt, want := range cases {
		got, err := s.Interp(tt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("Interp(%g) = %g, want %g", tt, got, want)
		}
	}
}

func TestFractionWithinBand(t *testing.T) {
	// 5 V for 8 s, 4 V for 2 s.
	s := mkSeries([2]float64{0, 5}, [2]float64{8, 4}, [2]float64{10, 4})
	f, err := s.FractionWithinBand(4.9, 5.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-0.8) > 1e-12 {
		t.Errorf("fraction %g, want 0.8", f)
	}
	fp, err := s.FractionWithinPercent(5, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fp-0.8) > 1e-12 {
		t.Errorf("percent fraction %g, want 0.8", fp)
	}
}

func TestAppendDedupe(t *testing.T) {
	s := NewSeries("v", "V")
	if !s.AppendDedupe(0, 1) {
		t.Error("first sample rejected")
	}
	if s.AppendDedupe(0, 1) {
		t.Error("exact duplicate accepted")
	}
	if !s.AppendDedupe(0, 2) {
		t.Error("same-time step change rejected")
	}
	if !s.AppendDedupe(1, 2) {
		t.Error("new-time sample rejected")
	}
	if s.Len() != 3 {
		t.Errorf("series holds %d samples, want 3", s.Len())
	}
	// Mean must reflect the deduped samples only.
	m, err := s.Mean()
	if err != nil || m != (1+2+2)/3.0 {
		t.Errorf("Mean = %g, %v", m, err)
	}
}

func TestDecimateKeepsEnds(t *testing.T) {
	s := NewSeries("x", "")
	for i := 0; i < 10; i++ {
		s.Append(float64(i), float64(i))
	}
	d := s.Decimate(4)
	ft, _ := d.First()
	lt, _ := d.Last()
	if ft != 0 || lt != 9 {
		t.Errorf("decimated span [%g, %g], want [0, 9]", ft, lt)
	}
	if d.Len() >= s.Len() {
		t.Error("decimation did not reduce")
	}
	if s.Decimate(0).Len() != s.Len() {
		t.Error("k<1 should keep everything")
	}
}

// TestQuickBandFractionBounded: the band fraction is always in [0,1].
func TestQuickBandFractionBounded(t *testing.T) {
	f := func(vals []float64, lo, hi float64) bool {
		if len(vals) == 0 {
			return true
		}
		s := NewSeries("q", "")
		for i, v := range vals {
			s.Append(float64(i), v)
		}
		if hi < lo {
			lo, hi = hi, lo
		}
		fr, err := s.FractionWithinBand(lo, hi)
		return err == nil && fr >= 0 && fr <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestASCIIPlot(t *testing.T) {
	s := mkSeries([2]float64{0, 0}, [2]float64{1, 1}, [2]float64{2, 4}, [2]float64{3, 2})
	plot := ASCIIPlot(s, 20, 5)
	if !strings.Contains(plot, "*") {
		t.Error("plot contains no points")
	}
	if ASCIIPlot(NewSeries("e", ""), 20, 5) != "(empty)\n" {
		t.Error("empty plot rendering wrong")
	}
}

func TestWriteCSV(t *testing.T) {
	a := mkSeries([2]float64{0, 1}, [2]float64{2, 3})
	b := NewSeries("other", "W")
	b.Append(1, 10)
	var sb strings.Builder
	if err := WriteCSV(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + union of 3 distinct times
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if lines[0] != "t,test[V],other[W]" {
		t.Errorf("header %q", lines[0])
	}
	if err := WriteCSV(&sb); err == nil {
		t.Error("no-series CSV accepted")
	}
}
