package pv

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestConstant(t *testing.T) {
	if Constant(500).Irradiance(123) != 500 {
		t.Error("constant profile not constant")
	}
}

func TestSinusoidClampsAtZero(t *testing.T) {
	s := Sinusoid{Mean: 100, Amplitude: 500, Period: 10}
	for tt := 0.0; tt < 20; tt += 0.1 {
		if g := s.Irradiance(tt); g < 0 {
			t.Fatalf("negative irradiance %g at t=%g", g, tt)
		}
	}
	// Mean+amplitude reached at quarter period.
	if g := s.Irradiance(2.5); math.Abs(g-600) > 1e-9 {
		t.Errorf("peak %g, want 600", g)
	}
}

func TestSinusoidDegenerate(t *testing.T) {
	s := Sinusoid{Mean: 300, Amplitude: 100, Period: 0}
	if g := s.Irradiance(5); g != 300 {
		t.Errorf("zero-period sinusoid = %g, want mean", g)
	}
}

func TestShadowProfile(t *testing.T) {
	s := Shadow{Base: 1000, Depth: 0.6, Start: 10, Duration: 5, Edge: 1}
	if g := s.Irradiance(5); g != 1000 {
		t.Errorf("before shadow: %g", g)
	}
	if g := s.Irradiance(13); math.Abs(g-400) > 1e-9 {
		t.Errorf("full shadow: %g, want 400", g)
	}
	if g := s.Irradiance(30); g != 1000 {
		t.Errorf("after shadow: %g", g)
	}
	// Edges are monotone.
	prev := s.Irradiance(10.0)
	for tt := 10.0; tt <= 11.0; tt += 0.05 {
		g := s.Irradiance(tt)
		if g > prev+1e-9 {
			t.Errorf("leading edge not monotone at t=%g", tt)
		}
		prev = g
	}
}

func TestShadowDepthClamped(t *testing.T) {
	s := Shadow{Base: 1000, Depth: 1.7, Start: 0, Duration: 10, Edge: 0.1}
	if g := s.Irradiance(5); g < 0 {
		t.Errorf("over-deep shadow gives negative irradiance %g", g)
	}
}

func TestDayEnvelope(t *testing.T) {
	d := StandardDay()
	if g := d.Irradiance(0); g != 0 {
		t.Errorf("midnight irradiance %g", g)
	}
	if g := d.Irradiance(5 * 3600); g != 0 {
		t.Errorf("pre-sunrise irradiance %g", g)
	}
	noon := d.Irradiance(13 * 3600)
	if noon < 900 || noon > 1000 {
		t.Errorf("noon irradiance %g, want near peak", noon)
	}
	if g := d.Irradiance(21 * 3600); g != 0 {
		t.Errorf("post-sunset irradiance %g", g)
	}
	// Symmetric about solar noon.
	g1 := d.Irradiance(10 * 3600)
	g2 := d.Irradiance(16 * 3600)
	if math.Abs(g1-g2) > 1e-6 {
		t.Errorf("asymmetric envelope: %g vs %g", g1, g2)
	}
}

func TestCloudsDeterministic(t *testing.T) {
	span := 3600.0
	a := NewClouds(Constant(1000), PartialSun(span), 42)
	b := NewClouds(Constant(1000), PartialSun(span), 42)
	c := NewClouds(Constant(1000), PartialSun(span), 43)
	same, diff := true, false
	for tt := 0.0; tt < span; tt += 10 {
		if a.Irradiance(tt) != b.Irradiance(tt) {
			same = false
		}
		if a.Irradiance(tt) != c.Irradiance(tt) {
			diff = true
		}
	}
	if !same {
		t.Error("same seed produced different traces")
	}
	if !diff {
		t.Error("different seeds produced identical traces")
	}
}

func TestCloudsBounded(t *testing.T) {
	span := 3600.0
	cl := NewClouds(Constant(1000), Overcast(span), 7)
	if len(cl.events) == 0 {
		t.Fatal("overcast generated no clouds")
	}
	for tt := 0.0; tt < span; tt += 5 {
		g := cl.Irradiance(tt)
		if g < 0 || g > 1000 {
			t.Fatalf("irradiance %g out of [0, base] at t=%g", g, tt)
		}
	}
}

func TestFullSunHasNoClouds(t *testing.T) {
	cl := NewClouds(Constant(1000), FullSun(), 1)
	if len(cl.events) != 0 {
		t.Errorf("full sun generated %d clouds", len(cl.events))
	}
	if cl.Irradiance(100) != 1000 {
		t.Error("full sun attenuates")
	}
}

func TestOffsetProfile(t *testing.T) {
	d := StandardDay()
	o := Offset{Base: d, T0: 10.5 * 3600}
	if got, want := o.Irradiance(0), d.Irradiance(10.5*3600); got != want {
		t.Errorf("offset start %g, want %g", got, want)
	}
}

// TestQuickProfilesNonNegative property-tests that every profile type
// yields non-negative irradiance at arbitrary times.
func TestQuickProfilesNonNegative(t *testing.T) {
	day := StandardDay()
	clouds := NewClouds(day, Hailstorm(24*3600), 99)
	shadow := Shadow{Base: 800, Depth: 0.9, Start: 100, Duration: 50, Edge: 5}
	sin := Sinusoid{Mean: 200, Amplitude: 900, Period: 30}
	profiles := []Profile{day, clouds, shadow, sin}
	f := func(tRaw float64) bool {
		tt := math.Mod(math.Abs(tRaw), 24*3600)
		for _, p := range profiles {
			if p.Irradiance(tt) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCloudsPooledRNGMatchesFreshSource checks that NewClouds, which
// re-seeds recycled generators, draws exactly the events a fresh
// rand.NewSource(seed) gives — for 1000 seeds visited in interleaved
// order (so each generator is reused across unrelated seeds) and from
// concurrent goroutines (run under -race in CI).
func TestCloudsPooledRNGMatchesFreshSource(t *testing.T) {
	const seeds = 1000
	p := Hailstorm(3600)
	want := make([][]cloudEvent, seeds)
	for s := range want {
		c := &Clouds{}
		drawClouds(c, p, rand.New(rand.NewSource(int64(s))))
		want[s] = c.events
	}
	check := func(seed int) bool {
		return reflect.DeepEqual(NewClouds(Constant(1000), p, int64(seed)).events, want[seed])
	}

	// Interleaved: alternate between the low and high ends of the range.
	for k := 0; k < seeds/2; k++ {
		for _, s := range []int{k, seeds - 1 - k} {
			if !check(s) {
				t.Fatalf("seed %d: pooled events differ from a fresh source", s)
			}
		}
	}

	const workers = 4
	var wg sync.WaitGroup
	var mu sync.Mutex
	var bad []int
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := w; s < seeds; s += workers {
				if !check(s) {
					mu.Lock()
					bad = append(bad, s)
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if len(bad) > 0 {
		t.Fatalf("concurrent NewClouds differed from a fresh source at seeds %v", bad)
	}
}
