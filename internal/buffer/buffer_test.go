package buffer

import (
	"math"
	"testing"
)

func TestSupercapValidation(t *testing.T) {
	good := Supercap{Farads: 25, ESROhms: 0.05, LeakOhms: 5000, VMax: 5.5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Supercap{
		{Farads: 0, LeakOhms: 1, VMax: 5},
		{Farads: 1, ESROhms: -1, LeakOhms: 1, VMax: 5},
		{Farads: 1, LeakOhms: 0, VMax: 5},
		{Farads: 1, LeakOhms: 1, VMax: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSupercapEnergy(t *testing.T) {
	s := Supercap{Farads: 2, LeakOhms: 1000, VMax: 5}
	if e := s.Energy(3); e != 9 { // ½·2·9
		t.Errorf("Energy(3) = %g", e)
	}
}

func TestSupercapLeakage(t *testing.T) {
	s := Supercap{Farads: 25, LeakOhms: 5000, VMax: 5.5}
	p := s.LeakagePower(5)
	if math.Abs(p-5e-3) > 1e-12 { // 25/5000
		t.Errorf("leakage %g W", p)
	}
	if d := s.DailyLeakageEnergy(5); math.Abs(d-p*86400) > 1e-9 {
		t.Errorf("daily leakage %g J", d)
	}
}

func TestEnergyNeutralSizing(t *testing.T) {
	// Harvest 2 W for half the samples, 0 for the rest; load constant
	// 1 W. Worst deficit: the dark half = 1 W × half the period.
	n := 100
	harvest := make([]float64, n)
	load := make([]float64, n)
	for i := range harvest {
		if i < n/2 {
			harvest[i] = 2
		}
		load[i] = 1
	}
	const dt = 60.0
	farads, deficit, err := EnergyNeutralSizing(harvest, load, dt, 5.7, 4.1)
	if err != nil {
		t.Fatal(err)
	}
	wantDeficit := 1.0 * dt * float64(n/2)
	if math.Abs(deficit-wantDeficit) > 1e-9 {
		t.Errorf("deficit %g, want %g", deficit, wantDeficit)
	}
	wantF := wantDeficit / (0.5 * (5.7*5.7 - 4.1*4.1))
	if math.Abs(farads-wantF) > 1e-9 {
		t.Errorf("farads %g, want %g", farads, wantF)
	}
}

func TestEnergyNeutralSizingSurplus(t *testing.T) {
	harvest := []float64{5, 5, 5}
	load := []float64{1, 1, 1}
	farads, deficit, err := EnergyNeutralSizing(harvest, load, 60, 5.7, 4.1)
	if err != nil {
		t.Fatal(err)
	}
	if farads != 0 || deficit != 0 {
		t.Errorf("pure surplus needs no buffer, got %g F", farads)
	}
}

func TestEnergyNeutralSizingValidation(t *testing.T) {
	if _, _, err := EnergyNeutralSizing([]float64{1}, []float64{1, 2}, 60, 5, 4); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, err := EnergyNeutralSizing([]float64{1}, []float64{1}, 0, 5, 4); err == nil {
		t.Error("zero dt accepted")
	}
	if _, _, err := EnergyNeutralSizing([]float64{1}, []float64{1}, 60, 4, 5); err == nil {
		t.Error("inverted swing accepted")
	}
}

func TestMinCapacitanceBisection(t *testing.T) {
	// Survival iff C >= 0.1 exactly.
	calls := 0
	survive := func(f float64) (bool, error) {
		calls++
		return f >= 0.1, nil
	}
	got, err := MinCapacitance(survive, 1e-3, 10, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.1 || got > 0.103 {
		t.Errorf("min capacitance %g, want ≈0.1 from above", got)
	}
	if calls > 40 {
		t.Errorf("bisection used %d evaluations", calls)
	}
}

func TestMinCapacitanceBracketErrors(t *testing.T) {
	never := func(float64) (bool, error) { return false, nil }
	if _, err := MinCapacitance(never, 1e-3, 1, 0.05); err == nil {
		t.Error("unsurvivable scenario accepted")
	}
	always := func(float64) (bool, error) { return true, nil }
	got, err := MinCapacitance(always, 1e-3, 1, 0.05)
	if err != nil || got != 1e-3 {
		t.Errorf("always-survives should return the lower bracket, got %g, %v", got, err)
	}
	if _, err := MinCapacitance(always, 1, 1, 0.05); err == nil {
		t.Error("degenerate bracket accepted")
	}
}
