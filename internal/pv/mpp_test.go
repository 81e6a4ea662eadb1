package pv

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// sameMPP reports whether two MPPs are bit-identical (distinguishing
// signed zeros, unlike ==).
func sameMPP(a, b MPP) bool {
	return math.Float64bits(a.V) == math.Float64bits(b.V) &&
		math.Float64bits(a.I) == math.Float64bits(b.I) &&
		math.Float64bits(a.P) == math.Float64bits(b.P)
}

// exactMPP is the uncached reference: the exact solve for g > 0 and the
// zero MPP otherwise.
func exactMPP(t testing.TB, a *Array, g float64) MPP {
	t.Helper()
	if g <= 0 {
		return MPP{}
	}
	m, err := a.solveMPP(g)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// memoArrays returns the arrays the memo tests cover: the two calibrated
// arrays and a mutated copy of the first.
func memoArrays() []*Array {
	hot := SouthamptonArray()
	hot.TempK = 318.15
	hot.Rs = 0.3
	return []*Array{SouthamptonArray(), SmallArray(), hot}
}

var memoIrradiances = []float64{StandardIrradiance, 850, 250, 1e-3, 0, -5}

// TestMaximumPowerPointMemoBitIdentical checks the process-wide memo
// returns the same bits as the uncached exact solve on a miss and on a
// hit, for several arrays and irradiances including g ≤ 0, and that
// mutating an array in place misses instead of returning the entry of
// its old parameter values.
func TestMaximumPowerPointMemoBitIdentical(t *testing.T) {
	for ai, arr := range memoArrays() {
		for _, g := range memoIrradiances {
			want := exactMPP(t, arr, g)
			for pass := 0; pass < 2; pass++ { // miss (or earlier hit), then hit
				got, err := arr.MaximumPowerPoint(g)
				if err != nil {
					t.Fatal(err)
				}
				if !sameMPP(got, want) {
					t.Errorf("array %d g=%g pass %d: memoised %+v != exact %+v", ai, g, pass, got, want)
				}
			}
		}
	}

	arr := SouthamptonArray()
	before, err := arr.MaximumPowerPoint(StandardIrradiance)
	if err != nil {
		t.Fatal(err)
	}
	arr.IscSTC = 1.3
	got, err := arr.MaximumPowerPoint(StandardIrradiance)
	if err != nil {
		t.Fatal(err)
	}
	if want := exactMPP(t, arr, StandardIrradiance); !sameMPP(got, want) || sameMPP(got, before) {
		t.Errorf("mutated array: memoised %+v, exact %+v, pre-mutation %+v", got, want, before)
	}
}

// TestMaximumPowerPointMemoConcurrent hammers the memo from concurrent
// goroutines (run under -race in CI): every caller must see the exact
// answer whether it misses, races another miss or hits.
func TestMaximumPowerPointMemoConcurrent(t *testing.T) {
	arrays := memoArrays()
	want := make([][]MPP, len(arrays))
	for ai, arr := range arrays {
		for _, g := range memoIrradiances {
			want[ai] = append(want[ai], exactMPP(t, arr, g))
		}
	}
	mppMemo.Lock()
	mppMemo.m = nil // start cold so the goroutines race on misses
	mppMemo.Unlock()

	var wg sync.WaitGroup
	var bad atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				for ai := range arrays {
					ai := (ai + w) % len(arrays)
					// A private copy per goroutine: callers share the memo,
					// not the Array value.
					arr := *arrays[ai]
					for gi, g := range memoIrradiances {
						got, err := arr.MaximumPowerPoint(g)
						if err != nil || !sameMPP(got, want[ai][gi]) {
							bad.Add(1)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := bad.Load(); n > 0 {
		t.Fatalf("%d concurrent callers saw a wrong MPP or an error", n)
	}
}

// TestMaximumPowerPointMemoClearOnFull fills the memo to memoCap and
// checks the next miss clears it, stores only the new entry, and that
// answers before, across and after the clear are identical.
func TestMaximumPowerPointMemoClearOnFull(t *testing.T) {
	arr := SouthamptonArray()
	want := exactMPP(t, arr, StandardIrradiance)

	mppMemo.Lock()
	mppMemo.m = make(map[mppKey]MPP, memoCap)
	// Fillers under g < 0, a key no caller can reach (g ≤ 0 never
	// consults the memo).
	for k := 0; len(mppMemo.m) < memoCap; k++ {
		mppMemo.m[mppKey{arr: *arr, g: -float64(k + 1)}] = MPP{V: -1}
	}
	mppMemo.Unlock()

	for pass := 0; pass < 2; pass++ { // the clearing miss, then a hit
		got, err := arr.MaximumPowerPoint(StandardIrradiance)
		if err != nil {
			t.Fatal(err)
		}
		if !sameMPP(got, want) {
			t.Errorf("pass %d: memoised %+v != exact %+v", pass, got, want)
		}
		mppMemo.Lock()
		n := len(mppMemo.m)
		mppMemo.Unlock()
		if n != 1 {
			t.Errorf("pass %d: memo holds %d entries after a clear-on-full, want 1", pass, n)
		}
	}
}
