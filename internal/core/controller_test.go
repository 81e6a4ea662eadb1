package core

import (
	"math"
	"testing"
	"testing/quick"

	"pnps/internal/soc"
)

func TestParamsValidation(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mut := func(f func(*Params)) Params {
		p := DefaultParams()
		f(&p)
		return p
	}
	bad := []Params{
		mut(func(p *Params) { p.VWidth = 0 }),
		mut(func(p *Params) { p.VQ = -0.01 }),
		mut(func(p *Params) { p.Alpha = 0 }),
		mut(func(p *Params) { p.Beta = p.Alpha / 2 }),
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

func TestPaperParameterSets(t *testing.T) {
	d := DefaultParams()
	if d.VWidth != 0.144 || d.VQ != 0.0479 || d.Alpha != 0.120 || d.Beta != 0.479 {
		t.Errorf("default params %+v do not match the paper's Section III values", d)
	}
	f6 := Fig6Params()
	if f6.VWidth != 0.2 || f6.VQ != 0.08 || f6.Alpha != 0.1 || f6.Beta != 0.12 {
		t.Errorf("Fig6 params %+v wrong", f6)
	}
	f11 := Fig11Params()
	if f11.VWidth != 0.335 || f11.VQ != 0.190 || f11.Alpha != 0.238 || f11.Beta != 0.633 {
		t.Errorf("Fig11 params %+v wrong", f11)
	}
}

func TestInitialThresholdCalibration(t *testing.T) {
	// Paper Eq. 1: Vhigh = Vc + Vwidth/2, Vlow = Vc − Vwidth/2.
	c, err := New(DefaultParams(), 5.3, soc.MinOPP(), 0)
	if err != nil {
		t.Fatal(err)
	}
	vh, vl := c.Thresholds()
	if math.Abs(vh-5.372) > 1e-9 || math.Abs(vl-5.228) > 1e-9 {
		t.Errorf("thresholds (%.4f, %.4f), want (5.372, 5.228)", vh, vl)
	}
	if math.Abs((vh-vl)-0.144) > 1e-12 {
		t.Errorf("threshold width %.4f, want Vwidth", vh-vl)
	}
}

func TestNewValidation(t *testing.T) {
	bad := DefaultParams()
	bad.VQ = 0
	if _, err := New(bad, 5.3, soc.MinOPP(), 0); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := New(DefaultParams(), 5.3, soc.OPP{FreqIdx: -2}, 0); err == nil {
		t.Error("invalid OPP accepted")
	}
}

func TestThresholdsSlideDownOnLowCrossing(t *testing.T) {
	c, _ := New(DefaultParams(), 5.3, soc.MaxOPP(), 0)
	vh0, vl0 := c.Thresholds()
	d := c.OnCrossing(CrossLow, 10)
	vh1, vl1 := c.Thresholds()
	vq := c.params.VQ
	if math.Abs(vh1-(vh0-vq)) > 1e-12 || math.Abs(vl1-(vl0-vq)) > 1e-12 {
		t.Errorf("thresholds did not slide down by Vq")
	}
	if d.VHigh != vh1 || d.VLow != vl1 {
		t.Error("decision thresholds disagree with controller state")
	}
	if vh1-vl1 != vh0-vl0 {
		t.Error("threshold width changed")
	}
}

func TestThresholdsSlideUpOnHighCrossing(t *testing.T) {
	c, _ := New(DefaultParams(), 5.3, soc.MinOPP(), 0)
	vh0, vl0 := c.Thresholds()
	c.OnCrossing(CrossHigh, 10)
	vh1, vl1 := c.Thresholds()
	vq := c.params.VQ
	if math.Abs(vh1-(vh0+vq)) > 1e-12 || math.Abs(vl1-(vl0+vq)) > 1e-12 {
		t.Error("thresholds did not slide up by Vq")
	}
}

func TestDVFSAlwaysStepsOne(t *testing.T) {
	p := DefaultParams()
	// Slow crossing: only DVFS.
	start := soc.OPP{FreqIdx: 4, Config: soc.CoreConfig{Little: 4, Big: 2}}
	d := Response(p, CrossLow, 100, start) // τ=100 s → slope ≈ 0.0005 V/s
	if d.FreqDelta != -1 {
		t.Errorf("FreqDelta = %d, want -1", d.FreqDelta)
	}
	if d.BigDelta != 0 || d.LittleDelta != 0 {
		t.Errorf("slow slope toggled cores: %+v", d)
	}
	if d.Target.FreqIdx != 3 || d.Target.Config != start.Config {
		t.Errorf("target %v", d.Target)
	}
}

func TestModerateSlopeTogglesLittle(t *testing.T) {
	p := DefaultParams()
	// slope between α (0.120) and β (0.479): τ = VQ/0.2.
	tau := p.VQ / 0.2
	start := soc.OPP{FreqIdx: 4, Config: soc.CoreConfig{Little: 4, Big: 2}}
	d := Response(p, CrossLow, tau, start)
	if d.LittleDelta != -1 || d.BigDelta != 0 {
		t.Errorf("moderate slope: deltas big=%d little=%d, want little only", d.BigDelta, d.LittleDelta)
	}
	if d.Target.Config.Little != 3 {
		t.Errorf("target %v", d.Target)
	}
}

func TestSteepSlopeTogglesBig(t *testing.T) {
	p := DefaultParams()
	tau := p.VQ / 1.0 // slope 1.0 V/s > β
	start := soc.OPP{FreqIdx: 4, Config: soc.CoreConfig{Little: 4, Big: 2}}
	d := Response(p, CrossLow, tau, start)
	if d.BigDelta != -1 || d.LittleDelta != 0 {
		t.Errorf("steep slope (flowchart): big=%d little=%d, want big only", d.BigDelta, d.LittleDelta)
	}
}

func TestEq2SemanticsTogglesBoth(t *testing.T) {
	p := DefaultParams()
	p.Semantics = SemanticsEq2
	tau := p.VQ / 1.0
	start := soc.OPP{FreqIdx: 4, Config: soc.CoreConfig{Little: 4, Big: 2}}
	d := Response(p, CrossLow, tau, start)
	if d.BigDelta != -1 || d.LittleDelta != -1 {
		t.Errorf("Eq2 steep slope: big=%d little=%d, want both", d.BigDelta, d.LittleDelta)
	}
	if d.Target.Config != (soc.CoreConfig{Little: 3, Big: 1}) {
		t.Errorf("target %v", d.Target)
	}
}

func TestSteepRiseAddsBig(t *testing.T) {
	p := DefaultParams()
	tau := p.VQ / 1.0
	start := soc.OPP{FreqIdx: 4, Config: soc.CoreConfig{Little: 4, Big: 2}}
	d := Response(p, CrossHigh, tau, start)
	if d.FreqDelta != 1 || d.BigDelta != 1 {
		t.Errorf("steep rise: freq=%d big=%d", d.FreqDelta, d.BigDelta)
	}
}

func TestBigRemovalFallsBackToLittle(t *testing.T) {
	p := DefaultParams()
	tau := p.VQ / 1.0 // steep
	start := soc.OPP{FreqIdx: 2, Config: soc.CoreConfig{Little: 3}}
	d := Response(p, CrossLow, tau, start)
	if d.BigDelta != 0 || d.LittleDelta != -1 {
		t.Errorf("no big online: big=%d little=%d, want LITTLE fallback", d.BigDelta, d.LittleDelta)
	}
}

func TestBigAdditionFallsBackToLittle(t *testing.T) {
	p := DefaultParams()
	tau := p.VQ / 1.0
	start := soc.OPP{FreqIdx: 2, Config: soc.CoreConfig{Little: 3, Big: 4}}
	d := Response(p, CrossHigh, tau, start)
	if d.BigDelta != 0 || d.LittleDelta != 1 {
		t.Errorf("big cluster full: big=%d little=%d, want LITTLE fallback", d.BigDelta, d.LittleDelta)
	}
}

func TestLittleRemovalAtFloorFallsBackToBig(t *testing.T) {
	p := DefaultParams()
	tau := p.VQ / 0.2 // moderate → LITTLE preferred
	start := soc.OPP{FreqIdx: 2, Config: soc.CoreConfig{Little: 1, Big: 2}}
	d := Response(p, CrossLow, tau, start)
	if d.LittleDelta != 0 || d.BigDelta != -1 {
		t.Errorf("LITTLE at floor: big=%d little=%d, want big fallback", d.BigDelta, d.LittleDelta)
	}
}

func TestBoundsNoChange(t *testing.T) {
	p := DefaultParams()
	// At MinOPP with a steep fall, nothing can be shed.
	d := Response(p, CrossLow, p.VQ/2.0, soc.MinOPP())
	if d.Target != soc.MinOPP() {
		t.Errorf("MinOPP low crossing moved to %v", d.Target)
	}
	// At MaxOPP with a steep rise, nothing can be added.
	d = Response(p, CrossHigh, p.VQ/2.0, soc.MaxOPP())
	if d.Target != soc.MaxOPP() {
		t.Errorf("MaxOPP high crossing moved to %v", d.Target)
	}
}

func TestZeroTauTreatedAsSteep(t *testing.T) {
	p := DefaultParams()
	start := soc.OPP{FreqIdx: 4, Config: soc.CoreConfig{Little: 4, Big: 2}}
	d := Response(p, CrossLow, 0, start)
	if d.BigDelta != -1 {
		t.Errorf("zero tau should act as steepest slope, got %+v", d)
	}
	if math.IsNaN(d.Slope) || math.IsInf(d.Slope, 0) {
		t.Errorf("slope %g not finite", d.Slope)
	}
}

func TestSlopeEstimate(t *testing.T) {
	p := DefaultParams()
	d := Response(p, CrossLow, 2.0, soc.MaxOPP())
	if math.Abs(d.Slope-p.VQ/2.0) > 1e-12 {
		t.Errorf("slope = %g, want Vq/τ = %g", d.Slope, p.VQ/2.0)
	}
	if d.Tau != 2.0 {
		t.Errorf("tau = %g", d.Tau)
	}
}

func TestTauMeasuredBetweenCrossings(t *testing.T) {
	c, _ := New(DefaultParams(), 5.3, soc.MaxOPP(), 0)
	d1 := c.OnCrossing(CrossLow, 1.0)
	if d1.Tau != 1.0 {
		t.Errorf("first tau = %g, want 1.0 (since t0)", d1.Tau)
	}
	d2 := c.OnCrossing(CrossLow, 1.5)
	if d2.Tau != 0.5 {
		t.Errorf("second tau = %g, want 0.5", d2.Tau)
	}
}

func TestStatsCounting(t *testing.T) {
	c, _ := New(DefaultParams(), 5.3, soc.MaxOPP(), 0)
	c.OnCrossing(CrossLow, 0.01) // steep: freq + big
	c.OnCrossing(CrossLow, 10)   // slow: freq only
	c.OnCrossing(CrossHigh, 10.2)
	st := c.Stats()
	if st.Crossings != 3 || st.LowCrossings != 2 {
		t.Errorf("crossings %+v", st)
	}
	if st.FreqSteps != 3 {
		t.Errorf("freq steps %d, want 3", st.FreqSteps)
	}
	if st.BigToggles < 1 {
		t.Errorf("big toggles %d", st.BigToggles)
	}
}

func TestRecalibrate(t *testing.T) {
	c, _ := New(DefaultParams(), 5.3, soc.MinOPP(), 0)
	c.OnCrossing(CrossLow, 1)
	c.Recalibrate(4.8)
	vh, vl := c.Thresholds()
	if math.Abs(vh-4.872) > 1e-9 || math.Abs(vl-4.728) > 1e-9 {
		t.Errorf("recalibrated thresholds (%.4f, %.4f)", vh, vl)
	}
}

func TestSetOPPClamps(t *testing.T) {
	c, _ := New(DefaultParams(), 5.3, soc.MinOPP(), 0)
	c.SetOPP(soc.OPP{FreqIdx: 99, Config: soc.CoreConfig{Little: 9, Big: 9}})
	if !c.opp.Valid() {
		t.Error("SetOPP stored invalid OPP")
	}
}

// TestQuickResponseInvariants property-tests the pure decision rule:
// whatever the inputs, the target stays valid, moves at most one step per
// dimension (flowchart), and moves in the crossing direction.
func TestQuickResponseInvariants(t *testing.T) {
	p := DefaultParams()
	f := func(tauRaw float64, fi, l, b uint8, highCross bool) bool {
		tau := math.Mod(math.Abs(tauRaw), 100)
		opp := soc.OPP{
			FreqIdx: int(fi % soc.NumFrequencyLevels),
			Config:  soc.CoreConfig{Little: 1 + int(l%4), Big: int(b % 5)},
		}
		which := CrossLow
		if highCross {
			which = CrossHigh
		}
		d := Response(p, which, tau, opp)
		if !d.Target.Valid() {
			return false
		}
		df := d.Target.FreqIdx - opp.FreqIdx
		dl := d.Target.Config.Little - opp.Config.Little
		db := d.Target.Config.Big - opp.Config.Big
		if abs(df) > 1 || abs(dl) > 1 || abs(db) > 1 {
			return false
		}
		// Flowchart semantics: at most one core dimension changes.
		if abs(dl)+abs(db) > 1 {
			return false
		}
		// Direction: low crossings never increase anything; high never
		// decrease.
		if which == CrossLow && (df > 0 || dl > 0 || db > 0) {
			return false
		}
		if which == CrossHigh && (df < 0 || dl < 0 || db < 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickEq2Invariants checks the Eq. 2 variant's own invariants: up to
// two core toggles, same direction discipline.
func TestQuickEq2Invariants(t *testing.T) {
	p := DefaultParams()
	p.Semantics = SemanticsEq2
	f := func(tauRaw float64, fi, l, b uint8, highCross bool) bool {
		tau := math.Mod(math.Abs(tauRaw), 100)
		opp := soc.OPP{
			FreqIdx: int(fi % soc.NumFrequencyLevels),
			Config:  soc.CoreConfig{Little: 1 + int(l%4), Big: int(b % 5)},
		}
		which := CrossLow
		if highCross {
			which = CrossHigh
		}
		d := Response(p, which, tau, opp)
		if !d.Target.Valid() {
			return false
		}
		if which == CrossLow && (d.FreqDelta > 0 || d.LittleDelta > 0 || d.BigDelta > 0) {
			return false
		}
		if which == CrossHigh && (d.FreqDelta < 0 || d.LittleDelta < 0 || d.BigDelta < 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCrossingString(t *testing.T) {
	if CrossLow.String() != "low" || CrossHigh.String() != "high" {
		t.Error("crossing strings wrong")
	}
	if SemanticsFlowchart.String() != "flowchart" || SemanticsEq2.String() != "eq2" {
		t.Error("semantics strings wrong")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
