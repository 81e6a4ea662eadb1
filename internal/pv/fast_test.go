package pv

import (
	"math"
	"testing"
)

// accuracy grid shared by the fast-vs-exact comparisons: voltages from
// short circuit past Voc, irradiances from dawn to beyond full sun.
var (
	gridG = []float64{1, 20, 100, 250, 500, 850, 1000, 1200}
	gridV = []float64{0, 0.5, 1, 2, 3, 4, 4.5, 5, 5.3, 5.8, 6.2, 6.6, 7}
)

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Abs(b))
}

// TestSolverCurrentAtMatchesExact sweeps an irradiance/voltage grid in an
// order that stresses the warm start (large jumps between consecutive
// solves) and requires agreement with the exact bracketed solver within
// 1e-6 relative — the accuracy bound the sim fast path is allowed.
func TestSolverCurrentAtMatchesExact(t *testing.T) {
	for _, arr := range []*Array{SouthamptonArray(), SmallArray()} {
		s := NewSolver(arr)
		for _, g := range gridG {
			for k := range gridV {
				// Alternate ends of the voltage range so the warm seed is
				// frequently far from the root.
				v := gridV[k]
				if k%2 == 1 {
					v = gridV[len(gridV)-1-k/2]
				}
				fast, err := s.CurrentAt(v, g)
				if err != nil {
					t.Fatalf("fast CurrentAt(%g, %g): %v", v, g, err)
				}
				exact, err := arr.CurrentAt(v, g)
				if err != nil {
					t.Fatalf("exact CurrentAt(%g, %g): %v", v, g, err)
				}
				if d := relDiff(fast, exact); d > 1e-6 {
					t.Errorf("CurrentAt(%g, %g): fast %g vs exact %g (rel %g)", v, g, fast, exact, d)
				}
			}
		}
	}
}

func TestSolverOpenCircuitVoltageMatchesExact(t *testing.T) {
	arr := SouthamptonArray()
	s := NewSolver(arr)
	for _, g := range gridG {
		fast, err := s.OpenCircuitVoltage(g)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := arr.OpenCircuitVoltage(g)
		if err != nil {
			t.Fatal(err)
		}
		if d := relDiff(fast, exact); d > 1e-6 {
			t.Errorf("Voc(%g): fast %g vs exact %g (rel %g)", g, fast, exact, d)
		}
		// The open-circuit current at the fast Voc must be ~zero.
		i, err := arr.CurrentAt(fast, g)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(i) > 1e-9 {
			t.Errorf("I(Voc=%g, g=%g) = %g, want ~0", fast, g, i)
		}
	}
	if v, err := s.OpenCircuitVoltage(0); err != nil || v != 0 {
		t.Errorf("Voc(0) = %g, %v; want 0, nil", v, err)
	}
}

func TestSolverAvailablePowerMatchesExact(t *testing.T) {
	arr := SouthamptonArray()
	s := NewSolver(arr)
	for _, g := range gridG {
		fast, err := s.AvailablePower(g)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := arr.AvailablePower(g)
		if err != nil {
			t.Fatal(err)
		}
		if d := relDiff(fast, exact); d > 1e-6 {
			t.Errorf("AvailablePower(%g): fast %g vs exact %g (rel %g)", g, fast, exact, d)
		}
	}
	if p, err := s.AvailablePower(0); err != nil || p != 0 {
		t.Errorf("AvailablePower(0) = %g, %v; want 0, nil", p, err)
	}
}

// TestSolverMemoisation verifies repeated MPP queries at one irradiance
// hit the memo (same struct back) and that the memo caps rather than
// growing without bound.
func TestSolverMemoisation(t *testing.T) {
	s := NewSolver(SouthamptonArray())
	m1, err := s.MaximumPowerPoint(850)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.MaximumPowerPoint(850)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Errorf("memoised MPP differs: %+v vs %+v", m1, m2)
	}
	if len(s.mpp) != 1 {
		t.Errorf("memo holds %d entries, want 1", len(s.mpp))
	}
	// Fill past the cap and confirm the map was reset, not grown.
	for i := 0; i <= memoCap; i++ {
		if _, err := s.OpenCircuitVoltage(100 + float64(i)*1e-3); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.voc) > memoCap {
		t.Errorf("voc memo grew to %d entries, cap is %d", len(s.voc), memoCap)
	}
}

// TestSolverDeterministicGivenCallSequence: two solvers fed the same call
// sequence must produce bit-identical results (the per-engine ownership
// contract that keeps parallel sweeps reproducible).
func TestSolverDeterministicGivenCallSequence(t *testing.T) {
	s1 := NewSolver(SouthamptonArray())
	s2 := NewSolver(SouthamptonArray())
	for k := 0; k < 500; k++ {
		v := 5.3 + 1.5*math.Sin(float64(k)*0.7)
		g := 600 + 400*math.Cos(float64(k)*0.3)
		i1, err1 := s1.CurrentAt(v, g)
		i2, err2 := s2.CurrentAt(v, g)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if i1 != i2 {
			t.Fatalf("step %d: %g != %g", k, i1, i2)
		}
	}
}

// TestVocMemoSharingBitIdentical checks that solvers attached to a shared
// VocMemo return bit-identical Voc values to a private solver regardless
// of which lane warms the memo first, and that attachment is refused
// across value-unequal arrays.
func TestVocMemoSharingBitIdentical(t *testing.T) {
	arrA, arrB := SouthamptonArray(), SouthamptonArray()
	memo := NewVocMemo(arrA)

	sPriv := NewSolver(SouthamptonArray())
	sA, sB := NewSolver(arrA), NewSolver(arrB)
	if !sA.ShareVoc(memo) || !sB.ShareVoc(memo) {
		t.Fatal("ShareVoc refused value-equal arrays")
	}

	for _, g := range gridG {
		want, err := sPriv.OpenCircuitVoltage(g)
		if err != nil {
			t.Fatal(err)
		}
		// sA computes (memo miss), sB hits the entry sA wrote.
		gotA, err := sA.OpenCircuitVoltage(g)
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := sB.OpenCircuitVoltage(g)
		if err != nil {
			t.Fatal(err)
		}
		if gotA != want || gotB != want {
			t.Errorf("Voc(%g): shared %g/%g vs private %g", g, gotA, gotB, want)
		}
	}

	small := SmallArray()
	if NewSolver(small).ShareVoc(memo) {
		t.Error("ShareVoc accepted a value-unequal array")
	}
	if NewSolver(small).ShareVoc(nil) {
		t.Error("ShareVoc accepted nil memo")
	}
}

// TestSolverMemoMapsLazy checks a Solver allocates its memo maps only on
// first insert, and that ShareVoc still attaches the shared map so
// entries written through one solver land in the VocMemo.
func TestSolverMemoMapsLazy(t *testing.T) {
	s := NewSolver(SouthamptonArray())
	if _, err := s.CurrentAt(5, 800); err != nil {
		t.Fatal(err)
	}
	if s.voc != nil || s.mpp != nil {
		t.Fatal("CurrentAt allocated the memo maps")
	}
	if _, err := s.AvailablePower(800); err != nil {
		t.Fatal(err)
	}
	if len(s.voc) != 1 || len(s.mpp) != 1 {
		t.Fatalf("after one MPP solve: %d Voc and %d MPP entries, want 1 each", len(s.voc), len(s.mpp))
	}

	memo := NewVocMemo(SouthamptonArray())
	shared := NewSolver(SouthamptonArray())
	if !shared.ShareVoc(memo) {
		t.Fatal("ShareVoc refused value-equal arrays")
	}
	if _, err := shared.OpenCircuitVoltage(800); err != nil {
		t.Fatal(err)
	}
	if v, ok := memo.voc[800]; !ok || v != s.voc[800] {
		t.Fatalf("shared memo entry %g (present %v), private %g", v, ok, s.voc[800])
	}
}
