package sim

import "pnps/internal/monitor"

// monitorCoarse returns a deliberately degraded threshold DAC: 17 taps
// over the default range (≈150 mV resolution, coarser than the paper's
// Vwidth).
func monitorCoarse() monitor.Config {
	c := monitor.DefaultConfig()
	c.Taps = 17
	return c
}

// stepProfile is a piecewise-constant irradiance profile: each step's
// level G (W/m²) holds from its time T on, and the first level also
// holds before it. Steps must be in time order.
type stepProfile []struct{ T, G float64 }

func (p stepProfile) Irradiance(t float64) float64 {
	g := p[0].G
	for _, s := range p {
		if t < s.T {
			break
		}
		g = s.G
	}
	return g
}
