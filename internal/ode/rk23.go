package ode

// hermite evaluates the cubic Hermite interpolant through (t0,y0,f0) and
// (t1,y1,f1) at time tc, writing into out.
func hermite(out []float64, t0, t1, tc float64, y0, y1, f0, f1 []float64) {
	h := t1 - t0
	s := (tc - t0) / h
	h00 := (1 + 2*s) * (1 - s) * (1 - s)
	h10 := s * (1 - s) * (1 - s)
	h01 := s * s * (3 - 2*s)
	h11 := s * s * (s - 1)
	for i := range out {
		out[i] = h00*y0[i] + h10*h*f0[i] + h01*y1[i] + h11*h*f1[i]
	}
}

func axpy(dst, y []float64, a float64, x []float64) {
	for i := range dst {
		dst[i] = y[i] + a*x[i]
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
