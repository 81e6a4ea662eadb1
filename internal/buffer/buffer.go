// Package buffer models the conventional energy-storage alternative the
// paper argues against: supercapacitor banks sized for *energy-neutral*
// operation (consume over a period exactly what is harvested), including
// their parasitic leakage (Weddell et al., cited as [5]).
//
// It also provides the generic minimum-capacitance search used by the
// "buffers" experiment: binary-searching the smallest buffer that keeps a
// given scenario alive, which quantifies the paper's headline claim that
// power-neutral scaling shrinks the required buffer from farads to tens
// of millifarads.
package buffer

import (
	"fmt"
	"math"
)

// Supercap is a supercapacitor bank with series resistance and a
// leakage path, the standard equivalent circuit for harvesting buffers.
type Supercap struct {
	// Farads is the bank capacitance.
	Farads float64
	// ESROhms is the equivalent series resistance.
	ESROhms float64
	// LeakOhms models self-discharge as a parallel resistance.
	LeakOhms float64
	// VMax is the rated voltage.
	VMax float64
}

// Validate checks the parameters.
func (s Supercap) Validate() error {
	switch {
	case s.Farads <= 0:
		return fmt.Errorf("buffer: capacitance must be positive, got %g", s.Farads)
	case s.ESROhms < 0:
		return fmt.Errorf("buffer: ESR must be non-negative, got %g", s.ESROhms)
	case s.LeakOhms <= 0:
		return fmt.Errorf("buffer: leakage resistance must be positive, got %g", s.LeakOhms)
	case s.VMax <= 0:
		return fmt.Errorf("buffer: rated voltage must be positive, got %g", s.VMax)
	}
	return nil
}

// Energy returns the stored energy at voltage v, joules.
func (s Supercap) Energy(v float64) float64 { return 0.5 * s.Farads * v * v }

// LeakagePower returns the instantaneous self-discharge power at voltage
// v, watts.
func (s Supercap) LeakagePower(v float64) float64 { return v * v / s.LeakOhms }

// DailyLeakageEnergy approximates the energy lost to self-discharge over
// a day at roughly constant voltage, joules.
func (s Supercap) DailyLeakageEnergy(v float64) float64 {
	return s.LeakagePower(v) * 24 * 3600
}

// EnergyNeutralSizing computes the buffer an energy-neutral design needs:
// the bank must ride through the worst cumulative harvest deficit of the
// period while swinging between vMax and vMin.
//
// harvest and load are power samples (watts) at a fixed period dt
// (seconds); the two slices must be equally long.
func EnergyNeutralSizing(harvest, load []float64, dt, vMax, vMin float64) (farads float64, deficit float64, err error) {
	if len(harvest) != len(load) || len(harvest) == 0 {
		return 0, 0, fmt.Errorf("buffer: harvest/load length mismatch (%d vs %d)", len(harvest), len(load))
	}
	if dt <= 0 {
		return 0, 0, fmt.Errorf("buffer: non-positive dt %g", dt)
	}
	if !(vMax > vMin) || vMin < 0 {
		return 0, 0, fmt.Errorf("buffer: voltage swing [%g,%g] invalid", vMin, vMax)
	}
	// Worst cumulative deficit of (load − harvest).
	var cum, worst float64
	for i := range harvest {
		cum += (load[i] - harvest[i]) * dt
		if cum < 0 {
			cum = 0 // surplus refills the buffer (clamped at full)
		}
		if cum > worst {
			worst = cum
		}
	}
	if worst == 0 {
		return 0, 0, nil
	}
	denom := 0.5 * (vMax*vMax - vMin*vMin)
	return worst / denom, worst, nil
}

// SurvivalFunc reports whether a scenario survives with the given buffer
// capacitance. It must be monotone in capacitance (more buffer never
// hurts) for MinCapacitance to be meaningful.
type SurvivalFunc func(farads float64) (bool, error)

// MinCapacitance binary-searches the smallest capacitance in [lo, hi]
// for which survive returns true, to within relTol (e.g. 0.05 = 5%). It
// returns an error when even hi fails or lo already suffices (bracket
// misuse).
func MinCapacitance(survive SurvivalFunc, lo, hi, relTol float64) (float64, error) {
	if !(hi > lo) || lo <= 0 {
		return 0, fmt.Errorf("buffer: bracket [%g,%g] invalid", lo, hi)
	}
	if relTol <= 0 {
		relTol = 0.05
	}
	okHi, err := survive(hi)
	if err != nil {
		return 0, err
	}
	if !okHi {
		return 0, fmt.Errorf("buffer: scenario dies even with %g F", hi)
	}
	okLo, err := survive(lo)
	if err != nil {
		return 0, err
	}
	if okLo {
		return lo, nil // already survives at the lower bracket
	}
	for hi/lo > 1+relTol {
		mid := math.Sqrt(lo * hi) // geometric: the range spans decades
		ok, err := survive(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}
