package pv

import (
	"math"
	"sync"
)

// MPP describes a maximum power point of the array at some irradiance.
type MPP struct {
	V float64 // voltage at the maximum power point, volts
	I float64 // current at the maximum power point, amps
	P float64 // maximum power, watts
}

// goldenMPPVoltage locates the voltage maximising power over [0, voc] by
// golden-section search; P(V) is unimodal for the single-diode model. It
// is shared by the exact and accelerated MPP solvers so their search
// semantics (bracketing, tolerance, iteration cap) cannot diverge.
func goldenMPPVoltage(voc float64, power func(v float64) float64) float64 {
	const phi = 0.6180339887498949
	lo, hi := 0.0, voc
	x1 := hi - phi*(hi-lo)
	x2 := lo + phi*(hi-lo)
	f1, f2 := power(x1), power(x2)
	for iter := 0; iter < 200 && hi-lo > 1e-7; iter++ {
		if f1 < f2 {
			lo, x1, f1 = x1, x2, f2
			x2 = lo + phi*(hi-lo)
			f2 = power(x2)
		} else {
			hi, x2, f2 = x2, x1, f1
			x1 = hi - phi*(hi-lo)
			f1 = power(x1)
		}
	}
	return 0.5 * (lo + hi)
}

// mppMemo memoises the exact MaximumPowerPoint solve process-wide, keyed
// by (array parameter values, irradiance). Every run assembled over the
// same array solves the same standard-irradiance MPP for its default
// initial and target voltages; the solve is a pure function of the key,
// so a memoised answer is bit-identical to a fresh one, and a mutated
// array is a different key rather than a stale hit. The map is bounded
// by memoCap and cleared when full.
var mppMemo struct {
	sync.Mutex
	m map[mppKey]MPP
}

type mppKey struct {
	arr Array
	g   float64
}

// MaximumPowerPoint locates the MPP at irradiance g by golden-section
// search over [0, Voc], memoised per (array values, g). At zero
// irradiance it returns a zero MPP. Safe for concurrent use.
func (a *Array) MaximumPowerPoint(g float64) (MPP, error) {
	if g <= 0 {
		return MPP{}, nil
	}
	key := mppKey{arr: *a, g: g}
	mppMemo.Lock()
	m, ok := mppMemo.m[key]
	mppMemo.Unlock()
	if ok {
		return m, nil
	}
	m, err := a.solveMPP(g)
	if err != nil {
		return MPP{}, err
	}
	mppMemo.Lock()
	if mppMemo.m == nil || len(mppMemo.m) >= memoCap {
		mppMemo.m = make(map[mppKey]MPP, 4)
	}
	mppMemo.m[key] = m
	mppMemo.Unlock()
	return m, nil
}

// solveMPP is the uncached exact solve behind MaximumPowerPoint, for g > 0.
func (a *Array) solveMPP(g float64) (MPP, error) {
	voc, err := a.OpenCircuitVoltage(g)
	if err != nil {
		return MPP{}, err
	}
	v := goldenMPPVoltage(voc, func(v float64) float64 {
		p, perr := a.PowerAt(v, g)
		if perr != nil {
			return math.Inf(-1)
		}
		return p
	})
	i, err := a.CurrentAt(v, g)
	if err != nil {
		return MPP{}, err
	}
	return MPP{V: v, I: i, P: v * i}, nil
}

// AvailablePower returns the maximum extractable power at irradiance g —
// the paper's "estimated available harvested power" used for Fig. 14.
func (a *Array) AvailablePower(g float64) (float64, error) {
	m, err := a.MaximumPowerPoint(g)
	if err != nil {
		return 0, err
	}
	return m.P, nil
}
