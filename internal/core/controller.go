// Package core implements the paper's primary contribution: the power
// neutral performance scaling controller for energy-harvesting MP-SoCs
// (Section II).
//
// The controller maintains two dynamic voltage thresholds Vhigh and Vlow,
// separated by Vwidth, around the supply capacitor voltage Vc. When Vc
// crosses a threshold the controller
//
//  1. applies *linear* DVFS control — one step along the 8-level frequency
//     ladder in the direction of the crossing;
//  2. applies *derivative* hot-plug control — the slope dVc/dt, estimated
//     as Vq/τ from the time τ since the previous crossing, decides whether
//     a 'big' (slope > β) or 'LITTLE' (slope > α) core is added/removed;
//  3. slides both thresholds by Vq in the direction of the crossing so
//     they track the harvested power.
//
// The controller is a pure decision engine: it consumes crossing events
// and emits OPP targets plus new threshold values. Wiring to the platform,
// the threshold-monitor hardware and the supply ODE lives in package sim.
package core

import (
	"fmt"

	"pnps/internal/soc"
)

// Crossing identifies which threshold Vc crossed.
type Crossing int

const (
	// CrossLow means Vc fell below Vlow: harvested power is short.
	CrossLow Crossing = iota
	// CrossHigh means Vc rose above Vhigh: harvested power is plentiful.
	CrossHigh
)

// String implements fmt.Stringer.
func (c Crossing) String() string {
	switch c {
	case CrossLow:
		return "low"
	case CrossHigh:
		return "high"
	default:
		return fmt.Sprintf("Crossing(%d)", int(c))
	}
}

// HotplugSemantics selects how the derivative (core hot-plug) response is
// derived from the slope estimate. The paper's flowchart (Fig. 5) and its
// Eq. 2 differ subtly; both are implemented and ablated.
type HotplugSemantics int

const (
	// SemanticsFlowchart (default) follows Fig. 5: the big-core test
	// (τ < Vq/β) is evaluated first and, when it fires, the LITTLE test
	// is skipped — exactly one core toggles per crossing.
	SemanticsFlowchart HotplugSemantics = iota
	// SemanticsEq2 reads Eq. 2 literally: a slope above β toggles a big
	// core AND (since β > α implies the α test also passes) a LITTLE
	// core in the same crossing.
	SemanticsEq2
)

// String implements fmt.Stringer.
func (s HotplugSemantics) String() string {
	switch s {
	case SemanticsFlowchart:
		return "flowchart"
	case SemanticsEq2:
		return "eq2"
	default:
		return fmt.Sprintf("HotplugSemantics(%d)", int(s))
	}
}

// Params are the controller's tuning parameters (paper Section II-A/B).
type Params struct {
	// VWidth is the initial separation of Vhigh and Vlow, volts.
	VWidth float64
	// VQ is the threshold slide applied on each crossing, volts.
	VQ float64
	// Alpha is the minimum |dVc/dt| (V/s) that warrants toggling a
	// LITTLE core.
	Alpha float64
	// Beta is the minimum |dVc/dt| (V/s) that warrants toggling a big
	// core. Beta must be >= Alpha.
	Beta float64
	// Semantics selects the hot-plug decision rule.
	Semantics HotplugSemantics
	// Order is the transition sequencing passed to the platform.
	Order soc.TransitionOrder
}

// DefaultParams returns the simulation-optimal parameters the paper
// selects in Section III: Vwidth=144 mV, Vq=47.9 mV, α=0.120 V/s,
// β=0.479 V/s, with the flowchart semantics and the core-first transition
// order the paper adopts from Table I.
func DefaultParams() Params {
	return Params{
		VWidth:    0.144,
		VQ:        0.0479,
		Alpha:     0.120,
		Beta:      0.479,
		Semantics: SemanticsFlowchart,
		Order:     soc.CoreFirst,
	}
}

// Fig6Params returns the parameter set of the paper's Fig. 6 simulation:
// Vwidth=0.2 V, Vq=80 mV, α=0.1 V/s, β=0.12 V/s.
func Fig6Params() Params {
	p := DefaultParams()
	p.VWidth, p.VQ, p.Alpha, p.Beta = 0.2, 0.080, 0.10, 0.12
	return p
}

// Fig11Params returns the deliberately large illustration parameters of
// the paper's Fig. 11: Vwidth=335 mV, Vq=190 mV, α=0.238 V/s, β=0.633 V/s.
func Fig11Params() Params {
	p := DefaultParams()
	p.VWidth, p.VQ, p.Alpha, p.Beta = 0.335, 0.190, 0.238, 0.633
	return p
}

// Validate checks parameter plausibility.
func (p Params) Validate() error {
	switch {
	case p.VWidth <= 0:
		return fmt.Errorf("core: VWidth must be positive, got %g", p.VWidth)
	case p.VQ <= 0:
		return fmt.Errorf("core: VQ must be positive, got %g", p.VQ)
	case p.Alpha <= 0:
		return fmt.Errorf("core: Alpha must be positive, got %g", p.Alpha)
	case p.Beta < p.Alpha:
		return fmt.Errorf("core: Beta (%g) must be >= Alpha (%g)", p.Beta, p.Alpha)
	}
	return nil
}

// Decision is the controller's response to a threshold crossing.
type Decision struct {
	// Target is the OPP the platform should move to (may equal the
	// previous OPP when every dimension is already at its bound).
	Target soc.OPP
	// FreqDelta, BigDelta, LittleDelta record the applied step in each
	// dimension (-1, 0 or +1; Eq. 2 semantics can set both core deltas).
	FreqDelta, BigDelta, LittleDelta int
	// VHigh and VLow are the new (un-quantised) threshold values.
	VHigh, VLow float64
	// Tau is the time since the previous crossing, seconds.
	Tau float64
	// Slope is the estimated |dVc/dt| = Vq/τ, V/s.
	Slope float64
	// Order is the transition sequencing to use for this change.
	Order soc.TransitionOrder
}

// Controller holds the runtime state of the power-neutral scheme.
type Controller struct {
	params Params

	opp          soc.OPP
	vhigh, vlow  float64
	lastCross    float64
	crossings    int
	lowCrossings int
	bigToggles   int
	littleToggle int
	freqSteps    int
}

// New builds a controller. Thresholds are calibrated around the initial
// capacitor voltage per the paper's Eq. 1: Vhigh = Vc + Vwidth/2,
// Vlow = Vc − Vwidth/2. t0 seeds the τ timer.
func New(p Params, initialVC float64, initialOPP soc.OPP, t0 float64) (*Controller, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !initialOPP.Valid() {
		return nil, fmt.Errorf("core: invalid initial OPP %v", initialOPP)
	}
	c := &Controller{params: p, opp: initialOPP, lastCross: t0}
	c.Recalibrate(initialVC)
	return c, nil
}

// SetOPP overrides the controller's OPP belief — used when the platform
// clamps or rejects a request, keeping controller and platform coherent.
func (c *Controller) SetOPP(o soc.OPP) { c.opp = o.Clamp() }

// Thresholds returns the current (un-quantised) Vhigh and Vlow.
func (c *Controller) Thresholds() (vhigh, vlow float64) { return c.vhigh, c.vlow }

// Recalibrate re-centres the thresholds around vc per Eq. 1 without
// altering the OPP — used at start-up and after a brownout restart.
func (c *Controller) Recalibrate(vc float64) {
	c.vhigh = vc + c.params.VWidth/2
	c.vlow = vc - c.params.VWidth/2
}

// Stats reports cumulative controller activity.
type Stats struct {
	Crossings     int // total threshold crossings handled
	LowCrossings  int // crossings of Vlow
	FreqSteps     int // DVFS steps commanded
	BigToggles    int // big-core hot-plug operations commanded
	LittleToggles int // LITTLE-core hot-plug operations commanded
}

// Stats returns cumulative controller activity counters.
func (c *Controller) Stats() Stats {
	return Stats{
		Crossings:     c.crossings,
		LowCrossings:  c.lowCrossings,
		FreqSteps:     c.freqSteps,
		BigToggles:    c.bigToggles,
		LittleToggles: c.littleToggle,
	}
}

// OnCrossing handles a threshold-crossing interrupt at time t and returns
// the control decision. The caller (the sim engine or a real interrupt
// handler) is responsible for actuating the decision on the platform and
// reprogramming the monitor hardware with the new thresholds.
func (c *Controller) OnCrossing(which Crossing, t float64) Decision {
	tau := t - c.lastCross
	c.lastCross = t
	c.crossings++
	if which == CrossLow {
		c.lowCrossings++
	}

	d := Response(c.params, which, tau, c.opp)

	if d.FreqDelta != 0 {
		c.freqSteps++
	}
	if d.BigDelta != 0 {
		c.bigToggles++
	}
	if d.LittleDelta != 0 {
		c.littleToggle++
	}

	// Slide thresholds by Vq in the crossing direction.
	if which == CrossLow {
		c.vhigh -= c.params.VQ
		c.vlow -= c.params.VQ
	} else {
		c.vhigh += c.params.VQ
		c.vlow += c.params.VQ
	}
	d.VHigh, d.VLow = c.vhigh, c.vlow
	c.opp = d.Target
	return d
}

// Response computes the pure control response — DVFS step and hot-plug
// deltas — for a crossing of the given direction with inter-crossing time
// tau, from the OPP opp. It is exposed separately from Controller so the
// decision rule can be property-tested in isolation.
func Response(p Params, which Crossing, tau float64, opp soc.OPP) Decision {
	d := Decision{Target: opp.Clamp(), Tau: tau, Order: p.Order}
	if tau > 0 {
		d.Slope = p.VQ / tau
	} else {
		// Coincident crossings: treat as an arbitrarily steep slope.
		d.Slope = p.Beta * 1e6
	}

	dir := -1
	if which == CrossHigh {
		dir = +1
	}

	// 1. Linear DVFS response: one frequency step in the crossing
	// direction (paper Fig. 5, first box).
	next := d.Target
	next.FreqIdx += dir
	if next.FreqIdx >= 0 && next.FreqIdx < soc.NumFrequencyLevels {
		d.FreqDelta = dir
	} else {
		next.FreqIdx = d.Target.FreqIdx
	}

	// 2. Derivative hot-plug response.
	bigFires := d.Slope > p.Beta
	littleFires := d.Slope > p.Alpha
	switch p.Semantics {
	case SemanticsFlowchart:
		if bigFires {
			next, d.BigDelta, d.LittleDelta = applyCoreDelta(next, dir, true)
		} else if littleFires {
			next, d.BigDelta, d.LittleDelta = applyCoreDelta(next, dir, false)
		}
	case SemanticsEq2:
		if bigFires {
			var db, dl int
			next, db, dl = applyCoreDelta(next, dir, true)
			d.BigDelta += db
			d.LittleDelta += dl
		}
		if littleFires {
			var db, dl int
			next, db, dl = applyCoreDelta(next, dir, false)
			d.BigDelta += db
			d.LittleDelta += dl
		}
	}

	d.Target = next
	return d
}

// applyCoreDelta toggles one core of the preferred type in direction dir
// (+1 add, -1 remove), falling back to the other type when the preferred
// dimension is at its bound (e.g. a steep drop with no big cores online
// still sheds a LITTLE core; a steep rise with all big cores online still
// adds a LITTLE core). It returns the new OPP and the applied deltas.
func applyCoreDelta(o soc.OPP, dir int, preferBig bool) (out soc.OPP, dBig, dLittle int) {
	out = o
	tryBig := func() bool {
		n := out.Config.Big + dir
		if n >= 0 && n <= 4 {
			out.Config.Big = n
			dBig = dir
			return true
		}
		return false
	}
	tryLittle := func() bool {
		n := out.Config.Little + dir
		if n >= 1 && n <= 4 {
			out.Config.Little = n
			dLittle = dir
			return true
		}
		return false
	}
	if preferBig {
		if !tryBig() {
			tryLittle()
		}
	} else {
		if !tryLittle() {
			tryBig()
		}
	}
	return out, dBig, dLittle
}
