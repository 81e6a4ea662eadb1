package soc

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPerfCalibration(t *testing.T) {
	pf := DefaultPerfModel()
	if err := pf.Validate(); err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 7 anchors.
	if fps := pf.FramesPerSecond(MaxOPP()); fps < 0.15 || fps > 0.40 {
		t.Errorf("max FPS %.3f, want ≈0.25 (paper Fig. 7)", fps)
	}
	littleMax := OPP{FreqIdx: NumFrequencyLevels - 1, Config: CoreConfig{Little: 4}}
	if fps := pf.FramesPerSecond(littleMax); fps < 0.04 || fps > 0.10 {
		t.Errorf("4xA7 FPS %.3f, want ≈0.065 (paper Fig. 7)", fps)
	}
}

func TestPerfMonotoneInFrequency(t *testing.T) {
	pf := DefaultPerfModel()
	for _, cfg := range ConfigLadder() {
		prev := -1.0
		for fi := 0; fi < NumFrequencyLevels; fi++ {
			ips := pf.InstructionsPerSecond(OPP{FreqIdx: fi, Config: cfg})
			if ips <= prev {
				t.Errorf("%v: IPS not increasing at level %d", cfg, fi)
			}
			prev = ips
		}
	}
}

func TestPerfMonotoneAlongLadder(t *testing.T) {
	pf := DefaultPerfModel()
	prev := -1.0
	for _, cfg := range ConfigLadder() {
		ips := pf.InstructionsPerSecond(OPP{FreqIdx: 4, Config: cfg})
		if ips <= prev {
			t.Errorf("IPS not increasing at %v", cfg)
		}
		prev = ips
	}
}

func TestAmdahlEfficiency(t *testing.T) {
	pf := DefaultPerfModel()
	if e := pf.amdahlEfficiency(1); e != 1 {
		t.Errorf("E(1) = %g", e)
	}
	prev := 1.0
	for n := 2; n <= 8; n++ {
		e := pf.amdahlEfficiency(n)
		if e >= prev {
			t.Errorf("E(%d) = %g not decreasing", n, e)
		}
		if e <= 0 || e > 1 {
			t.Errorf("E(%d) = %g out of (0,1]", n, e)
		}
		prev = e
	}
}

func TestLittleOnlyWinsFPSPerWatt(t *testing.T) {
	pm := DefaultPowerModel()
	pf := DefaultPerfModel()
	littleMax := OPP{FreqIdx: NumFrequencyLevels - 1, Config: CoreConfig{Little: 4}}
	effLittle := pf.FramesPerSecond(littleMax) / pm.PowerAtFullLoad(littleMax)
	effMax := pf.FramesPerSecond(MaxOPP()) / pm.PowerAtFullLoad(MaxOPP())
	if effLittle <= effMax {
		t.Errorf("LITTLE-only FPS/W %.4f should beat full-chip %.4f", effLittle, effMax)
	}
}

func TestPerfValidation(t *testing.T) {
	bad := DefaultPerfModel()
	bad.IPCBig = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero IPC accepted")
	}
	bad2 := DefaultPerfModel()
	bad2.ParallelFraction = 1.5
	if err := bad2.Validate(); err == nil {
		t.Error("parallel fraction >1 accepted")
	}
	bad3 := DefaultPerfModel()
	bad3.InstructionsPerFrame = 0
	if err := bad3.Validate(); err == nil {
		t.Error("zero instructions/frame accepted")
	}
}

// TestQuickIPSPositive checks the whole envelope yields positive finite
// throughput.
func TestQuickIPSPositive(t *testing.T) {
	pf := DefaultPerfModel()
	f := func(fi, l, b int8) bool {
		o := OPP{FreqIdx: int(fi), Config: CoreConfig{Little: int(l), Big: int(b)}}
		ips := pf.InstructionsPerSecond(o)
		return ips > 0 && !math.IsInf(ips, 0) && !math.IsNaN(ips)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
