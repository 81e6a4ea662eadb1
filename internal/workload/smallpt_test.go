package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVecAlgebra(t *testing.T) {
	a := Vec{1, 2, 3}
	b := Vec{4, 5, 6}
	if a.Add(b) != (Vec{5, 7, 9}) {
		t.Error("Add")
	}
	if b.Sub(a) != (Vec{3, 3, 3}) {
		t.Error("Sub")
	}
	if a.Scale(2) != (Vec{2, 4, 6}) {
		t.Error("Scale")
	}
	if a.Mul(b) != (Vec{4, 10, 18}) {
		t.Error("Mul")
	}
	if a.Dot(b) != 32 {
		t.Error("Dot")
	}
	if a.Cross(b) != (Vec{-3, 6, -3}) {
		t.Error("Cross")
	}
	if v := (Vec{3, 4, 0}); length(v) != 5 {
		t.Error("length")
	}
	if (Vec{0, 0, 0}).Norm() != (Vec{0, 0, 0}) {
		t.Error("zero Norm should stay zero")
	}
	if (Vec{1, 7, 3}).MaxComponent() != 7 {
		t.Error("MaxComponent")
	}
}

func TestQuickCrossOrthogonal(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		bound := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 1
			}
			return math.Mod(x, 1e3)
		}
		a := Vec{bound(ax), bound(ay), bound(az)}
		b := Vec{bound(bx), bound(by), bound(bz)}
		c := a.Cross(b)
		scale := 1 + length(a)*length(b)
		return math.Abs(c.Dot(a))/scale < 1e-6 && math.Abs(c.Dot(b))/scale < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickNormUnitLength(t *testing.T) {
	f := func(x, y, z float64) bool {
		ok := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		if !ok(x) || !ok(y) || !ok(z) {
			return true
		}
		v := Vec{math.Mod(x, 1e6), math.Mod(y, 1e6), math.Mod(z, 1e6)}
		if length(v) == 0 {
			return true
		}
		return math.Abs(length(v.Norm())-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSphereIntersection(t *testing.T) {
	s := Sphere{Radius: 1, Position: Vec{0, 0, 5}}
	// Ray straight at the sphere hits the near surface at distance 4.
	d := s.Intersect(Ray{Origin: Vec{0, 0, 0}, Dir: Vec{0, 0, 1}})
	if math.Abs(d-4) > 1e-9 {
		t.Errorf("head-on hit at %g, want 4", d)
	}
	// Ray pointing away misses.
	if d := s.Intersect(Ray{Origin: Vec{0, 0, 0}, Dir: Vec{0, 0, -1}}); d != 0 {
		t.Errorf("behind-ray hit %g", d)
	}
	// Offset ray misses.
	if d := s.Intersect(Ray{Origin: Vec{0, 5, 0}, Dir: Vec{0, 0, 1}}); d != 0 {
		t.Errorf("offset ray hit %g", d)
	}
	// Ray from inside hits the far surface.
	din := s.Intersect(Ray{Origin: Vec{0, 0, 5}, Dir: Vec{0, 0, 1}})
	if math.Abs(din-1) > 1e-9 {
		t.Errorf("inside hit at %g, want 1", din)
	}
}

func TestToSRGB(t *testing.T) {
	if ToSRGB(0) != 0 {
		t.Error("black")
	}
	if ToSRGB(1) != 255 {
		t.Error("white")
	}
	if ToSRGB(-1) != 0 || ToSRGB(2) != 255 {
		t.Error("clamping")
	}
	if ToSRGB(0.5) <= 128 { // gamma brightens midtones
		t.Error("gamma curve missing")
	}
}

func TestCornellSceneGeometry(t *testing.T) {
	sc := CornellScene()
	if len(sc.Spheres) != 9 {
		t.Fatalf("scene has %d spheres", len(sc.Spheres))
	}
	var lights int
	for _, s := range sc.Spheres {
		if s.Emission.MaxComponent() > 0 {
			lights++
		}
	}
	if lights != 1 {
		t.Errorf("scene has %d emitters, want 1", lights)
	}
}

func TestRenderDeterministic(t *testing.T) {
	sc := CornellScene()
	opts := RenderOptions{Width: 16, Height: 12, SamplesPerPixel: 2, Seed: 11}
	a, err := sc.Render(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 1 // different parallelism must not change the image
	b, err := sc.Render(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Pixels {
		if a.Pixels[i] != b.Pixels[i] {
			t.Fatalf("pixel %d differs across worker counts", i)
		}
	}
}

func TestRenderProducesLight(t *testing.T) {
	sc := CornellScene()
	img, err := sc.Render(RenderOptions{Width: 24, Height: 18, SamplesPerPixel: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lum := img.MeanLuminance()
	if lum <= 0.02 || lum >= 1 {
		t.Errorf("mean luminance %g implausible for the Cornell box", lum)
	}
	// All radiance finite and non-negative.
	for i, p := range img.Pixels {
		for _, v := range []float64{p.X, p.Y, p.Z} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("pixel %d has invalid radiance %+v", i, p)
			}
		}
	}
}

func TestRenderOptionValidation(t *testing.T) {
	sc := CornellScene()
	if _, err := sc.Render(RenderOptions{Width: 0, Height: 5, SamplesPerPixel: 1}); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := sc.Render(RenderOptions{Width: 5, Height: 5, SamplesPerPixel: 0}); err == nil {
		t.Error("zero spp accepted")
	}
}

func TestMoreSamplesLessNoise(t *testing.T) {
	sc := CornellScene()
	relNoise := func(spp int) float64 {
		// Render the same image with two seeds and measure the mean
		// squared pixel difference relative to the image brightness — a
		// Monte-Carlo noise proxy robust to the per-subpixel clamping
		// bias at very low sample counts.
		a, err := sc.Render(RenderOptions{Width: 12, Height: 9, SamplesPerPixel: spp, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := sc.Render(RenderOptions{Width: 12, Height: 9, SamplesPerPixel: spp, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for i := range a.Pixels {
			d := a.Pixels[i].Sub(b.Pixels[i])
			sum += d.Dot(d)
		}
		lum := (a.MeanLuminance() + b.MeanLuminance()) / 2
		return sum / float64(len(a.Pixels)) / (lum * lum)
	}
	if v2, v16 := relNoise(2), relNoise(16); v16 >= v2 {
		t.Errorf("16 spp relative noise %g not below 2 spp noise %g", v16, v2)
	}
}

// length returns the Euclidean norm of v.
func length(v Vec) float64 { return math.Sqrt(v.Dot(v)) }
