package workload

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// Material selects the surface reflectance model, following smallpt.
type Material int

const (
	// Diffuse is an ideal Lambertian surface.
	Diffuse Material = iota
	// Specular is an ideal mirror.
	Specular
	// Refractive is glass (dielectric with Fresnel splitting).
	Refractive
)

// Sphere is the only primitive, as in smallpt.
type Sphere struct {
	Radius   float64
	Position Vec
	Emission Vec // radiance emitted (light sources)
	Colour   Vec // surface albedo
	Material Material
}

// Ray is an origin and a unit direction.
type Ray struct {
	Origin, Dir Vec
}

const eps = 1e-4

// Intersect returns the distance along r at which it hits the sphere, or
// 0 if it misses.
func (s *Sphere) Intersect(r Ray) float64 {
	op := s.Position.Sub(r.Origin)
	b := op.Dot(r.Dir)
	det := b*b - op.Dot(op) + s.Radius*s.Radius
	if det < 0 {
		return 0
	}
	det = math.Sqrt(det)
	if t := b - det; t > eps {
		return t
	}
	if t := b + det; t > eps {
		return t
	}
	return 0
}

// Scene is a collection of spheres plus a camera.
type Scene struct {
	Spheres []Sphere
	// CamPos and CamDir define the viewpoint.
	CamPos, CamDir Vec
}

// CornellScene returns the classic smallpt Cornell-box arrangement: two
// walls-as-giant-spheres box, a mirror ball, a glass ball and a ceiling
// light.
func CornellScene() *Scene {
	return &Scene{
		Spheres: []Sphere{
			{1e5, Vec{1e5 + 1, 40.8, 81.6}, Vec{}, Vec{0.75, 0.25, 0.25}, Diffuse},   // left wall
			{1e5, Vec{-1e5 + 99, 40.8, 81.6}, Vec{}, Vec{0.25, 0.25, 0.75}, Diffuse}, // right wall
			{1e5, Vec{50, 40.8, 1e5}, Vec{}, Vec{0.75, 0.75, 0.75}, Diffuse},         // back wall
			{1e5, Vec{50, 40.8, -1e5 + 170}, Vec{}, Vec{}, Diffuse},                  // front
			{1e5, Vec{50, 1e5, 81.6}, Vec{}, Vec{0.75, 0.75, 0.75}, Diffuse},         // floor
			{1e5, Vec{50, -1e5 + 81.6, 81.6}, Vec{}, Vec{0.75, 0.75, 0.75}, Diffuse}, // ceiling
			{16.5, Vec{27, 16.5, 47}, Vec{}, Vec{0.999, 0.999, 0.999}, Specular},     // mirror ball
			{16.5, Vec{73, 16.5, 78}, Vec{}, Vec{0.999, 0.999, 0.999}, Refractive},   // glass ball
			{600, Vec{50, 681.6 - 0.27, 81.6}, Vec{12, 12, 12}, Vec{}, Diffuse},      // light
		},
		CamPos: Vec{50, 52, 295.6},
		CamDir: Vec{0, -0.042612, -1}.Norm(),
	}
}

// intersect finds the nearest sphere hit by r.
func (sc *Scene) intersect(r Ray) (idx int, dist float64, ok bool) {
	dist = math.Inf(1)
	idx = -1
	for i := range sc.Spheres {
		if d := sc.Spheres[i].Intersect(r); d != 0 && d < dist {
			dist = d
			idx = i
		}
	}
	return idx, dist, idx >= 0
}

// Radiance evaluates the rendering equation along r with Russian-roulette
// path termination, exactly following smallpt's structure.
func (sc *Scene) Radiance(r Ray, depth int, rng *rand.Rand) Vec {
	idx, dist, ok := sc.intersect(r)
	if !ok {
		return Vec{}
	}
	obj := &sc.Spheres[idx]
	x := r.Origin.Add(r.Dir.Scale(dist))
	n := x.Sub(obj.Position).Norm()
	nl := n
	if n.Dot(r.Dir) >= 0 {
		nl = n.Scale(-1)
	}
	f := obj.Colour
	depth++
	if depth > 5 {
		// Russian roulette on the maximum reflectance.
		p := f.MaxComponent()
		if depth > 64 || p == 0 || rng.Float64() >= p {
			return obj.Emission
		}
		f = f.Scale(1 / p)
	}
	switch obj.Material {
	case Diffuse:
		r1 := 2 * math.Pi * rng.Float64()
		r2 := rng.Float64()
		r2s := math.Sqrt(r2)
		w := nl
		var u Vec
		if math.Abs(w.X) > 0.1 {
			u = Vec{0, 1, 0}.Cross(w).Norm()
		} else {
			u = Vec{1, 0, 0}.Cross(w).Norm()
		}
		v := w.Cross(u)
		d := u.Scale(math.Cos(r1) * r2s).
			Add(v.Scale(math.Sin(r1) * r2s)).
			Add(w.Scale(math.Sqrt(1 - r2))).Norm()
		return obj.Emission.Add(f.Mul(sc.Radiance(Ray{x, d}, depth, rng)))
	case Specular:
		refl := r.Dir.Sub(n.Scale(2 * n.Dot(r.Dir)))
		return obj.Emission.Add(f.Mul(sc.Radiance(Ray{x, refl}, depth, rng)))
	default: // Refractive
		reflRay := Ray{x, r.Dir.Sub(n.Scale(2 * n.Dot(r.Dir)))}
		into := n.Dot(nl) > 0
		nc, nt := 1.0, 1.5
		nnt := nt / nc
		if into {
			nnt = nc / nt
		}
		ddn := r.Dir.Dot(nl)
		cos2t := 1 - nnt*nnt*(1-ddn*ddn)
		if cos2t < 0 { // total internal reflection
			return obj.Emission.Add(f.Mul(sc.Radiance(reflRay, depth, rng)))
		}
		sign := -1.0
		if into {
			sign = 1.0
		}
		tdir := r.Dir.Scale(nnt).Sub(n.Scale(sign * (ddn*nnt + math.Sqrt(cos2t)))).Norm()
		a, b := nt-nc, nt+nc
		r0 := a * a / (b * b)
		c := 1 + ddn
		if !into {
			c = 1 - tdir.Dot(n)
		}
		re := r0 + (1-r0)*c*c*c*c*c
		tr := 1 - re
		p := 0.25 + 0.5*re
		if depth > 2 {
			if rng.Float64() < p {
				return obj.Emission.Add(f.Mul(sc.Radiance(reflRay, depth, rng).Scale(re / p)))
			}
			return obj.Emission.Add(f.Mul(sc.Radiance(Ray{x, tdir}, depth, rng).Scale(tr / (1 - p))))
		}
		both := sc.Radiance(reflRay, depth, rng).Scale(re).
			Add(sc.Radiance(Ray{x, tdir}, depth, rng).Scale(tr))
		return obj.Emission.Add(f.Mul(both))
	}
}

// RenderOptions configures a render.
type RenderOptions struct {
	// Width and Height are the image dimensions in pixels.
	Width, Height int
	// SamplesPerPixel matches the paper's quality setting (5 in Fig. 7).
	SamplesPerPixel int
	// Workers bounds render parallelism; 0 means GOMAXPROCS.
	Workers int
	// Seed fixes the Monte-Carlo sequence for reproducibility.
	Seed int64
}

// Validate checks the options.
func (o RenderOptions) Validate() error {
	if o.Width < 1 || o.Height < 1 {
		return fmt.Errorf("workload: image size %dx%d invalid", o.Width, o.Height)
	}
	if o.SamplesPerPixel < 1 {
		return fmt.Errorf("workload: need >=1 sample per pixel, got %d", o.SamplesPerPixel)
	}
	return nil
}

// Image is a simple linear-RGB framebuffer.
type Image struct {
	Width, Height int
	Pixels        []Vec // row-major, Pixels[y*Width+x]
}

// MeanLuminance returns the average of the RGB means across the image —
// a cheap regression metric for tests.
func (im *Image) MeanLuminance() float64 {
	var sum float64
	for _, p := range im.Pixels {
		sum += (p.X + p.Y + p.Z) / 3
	}
	return sum / float64(len(im.Pixels))
}

// Render path-traces the scene, parallelised across scanlines — the same
// work division smallpt uses with OpenMP. It is deterministic for a fixed
// Seed regardless of worker count (each row derives its own RNG).
func (sc *Scene) Render(opts RenderOptions) (*Image, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	w, h := opts.Width, opts.Height
	img := &Image{Width: w, Height: h, Pixels: make([]Vec, w*h)}

	cx := Vec{X: float64(w) * 0.5135 / float64(h)}
	cy := cx.Cross(sc.CamDir).Norm().Scale(0.5135)

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rows := make(chan int)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for y := range rows {
				rng := rand.New(rand.NewSource(opts.Seed ^ int64(y)*0x5851F42D4C957F2D))
				sc.renderRow(img, y, cx, cy, opts.SamplesPerPixel, rng)
			}
		}()
	}
	for y := 0; y < h; y++ {
		rows <- y
	}
	close(rows)
	wg.Wait()
	return img, nil
}

// renderRow renders one scanline with 2x2 subpixel tent-filter sampling,
// following smallpt.
func (sc *Scene) renderRow(img *Image, y int, cx, cy Vec, spp int, rng *rand.Rand) {
	w, h := img.Width, img.Height
	for x := 0; x < w; x++ {
		var pixel Vec
		for sy := 0; sy < 2; sy++ {
			for sx := 0; sx < 2; sx++ {
				var acc Vec
				for s := 0; s < spp; s++ {
					r1 := 2 * rng.Float64()
					dx := math.Sqrt(r1) - 1
					if r1 >= 1 {
						dx = 1 - math.Sqrt(2-r1)
					}
					r2 := 2 * rng.Float64()
					dy := math.Sqrt(r2) - 1
					if r2 >= 1 {
						dy = 1 - math.Sqrt(2-r2)
					}
					d := cx.Scale(((float64(sx)+0.5+dx)/2+float64(x))/float64(w) - 0.5).
						Add(cy.Scale(((float64(sy)+0.5+dy)/2+float64(y))/float64(h) - 0.5)).
						Add(sc.CamDir)
					ray := Ray{sc.CamPos.Add(d.Scale(140)), d.Norm()}
					acc = acc.Add(sc.Radiance(ray, 0, rng).Scale(1 / float64(spp)))
				}
				pixel = pixel.Add(Vec{clamp01(acc.X), clamp01(acc.Y), clamp01(acc.Z)}.Scale(0.25))
			}
		}
		img.Pixels[(h-y-1)*w+x] = pixel
	}
}
