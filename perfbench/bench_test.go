package main

import (
	"math"
	"reflect"
	"testing"
)

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{100, 0.9, 90, true},
		{99, 0.9, 90, false},
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{1, 0.5, 1, false},
	} {
		got, ok := quantile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("quantile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Error("quantile of no samples reported as valid")
	}
}

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{Name: "bench.op", Start: 0, End: 100, Parent: noSpan},
		// Two concurrent children overlapping on [30, 40).
		{Name: "a.x", Start: 10, End: 40, Parent: 0},
		{Name: "b.y", Start: 30, End: 60, Parent: 0},
		// A grandchild nested in a.x.
		{Name: "c.z", Start: 15, End: 25, Parent: 1},
		// A child sticking out of its parent counts only inside it.
		{Name: "d.w", Start: 90, End: 120, Parent: 0},
	}
	got := selfTimes(spans)
	// Root: 100 minus the union [10,60) ∪ [90,100) = 40.
	want := []int64{40, 20, 30, 10, 30}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	p := newProfile(spans)
	if p.roots != 1 || p.rootNs != 100 {
		t.Fatalf("roots = %d over %d ns, want 1 over 100", p.roots, p.rootNs)
	}
	if cov := p.coverage(); cov != 0.6 {
		t.Errorf("coverage = %g, want 0.6", cov)
	}
	if us := p.meanSelfUs("a.x"); us != 0.02 {
		t.Errorf("meanSelfUs(a.x) = %g, want 0.02", us)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	if a, b := arrivals(5, 250, 100), arrivals(5, 250, 100); !reflect.DeepEqual(a, b) {
		t.Error("arrival schedule differs for the same seed")
	}
	if a, b := arrivals(5, 250, 100), arrivals(6, 250, 100); reflect.DeepEqual(a, b) {
		t.Error("arrival schedule ignores the seed")
	}
	for _, gen := range []func(int64) [][]byte{
		func(s int64) [][]byte { return newRecipeSource(s, shortRecipe).take(20) },
		func(s int64) [][]byte { return newRecipeSource(s, longRecipe).take(5) },
		func(s int64) [][]byte {
			var out [][]byte
			for _, r := range newServeMix(s).take(60) {
				out = append(out, r.body)
			}
			return out
		},
	} {
		if a, b := gen(9), gen(9); !reflect.DeepEqual(a, b) {
			t.Error("recipe sequence differs for the same seed")
		}
		if a, b := gen(9), gen(10); reflect.DeepEqual(a, b) {
			t.Error("recipe sequence ignores the seed")
		}
	}
}

func TestServeMixKeepsClassShares(t *testing.T) {
	m := newServeMix(3)
	counts := map[string]int{}
	pop := map[string]bool{}
	for _, p := range m.pop {
		pop[string(p)] = true
	}
	for _, r := range m.take(10 * len(serveDeck)) {
		counts[r.class]++
		if isPop := pop[string(r.body)]; isPop != (r.class == "hit") {
			t.Fatalf("%s request %s: population recipe = %v", r.class, r.body, isPop)
		}
		if _, err := buildRecipe(r.body); err != nil {
			t.Fatalf("%s request does not build: %v", r.class, err)
		}
	}
	want := map[string]int{}
	for _, class := range serveDeck {
		want[class] += 10
	}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("class counts %v, want %v", counts, want)
	}
}

func TestMaxRateLadder(t *testing.T) {
	// rungAt builds a rung from synthetic latencies: 200 requests, of
	// which the slowest 25 take tailMs and the rest 1 ms, so the p90 is
	// tailMs.
	rungAt := func(rate, tailMs float64, backlog int) rung {
		lat := make([]float64, 200)
		for i := range lat {
			lat[i] = 1
			if i >= 175 {
				lat[i] = tailMs
			}
		}
		p90, ok := quantile(sorted(lat), 0.9)
		return rung{Rate: rate, TailMs: p90, TailOK: ok, Backlog: backlog}
	}
	const limit = 100
	for _, c := range []struct {
		name  string
		rungs []rung
		want  float64
	}{
		{"all pass", []rung{rungAt(100, 50, 1), rungAt(200, 80, 2)}, 200},
		{"tail over the limit", []rung{rungAt(100, 50, 1), rungAt(200, 150, 2), rungAt(400, 50, 1)}, 100},
		{"backlog grows", []rung{rungAt(100, 50, 1), rungAt(200, 50, 60)}, 100},
		{"refusals are infinitely late", []rung{rungAt(100, math.Inf(1), 1)}, 0},
		{"too few samples", []rung{{Rate: 100, TailMs: 1, TailOK: false}}, 0},
	} {
		if got := maxRate(c.rungs, limit); got != c.want {
			t.Errorf("%s: maxRate = %g, want %g", c.name, got, c.want)
		}
	}
}

func TestDigestsFileParses(t *testing.T) {
	for _, w := range []string{"study-short", "study-long", "serve-mixed", "coord-chunks"} {
		if got := referenceDigests(w, defaultSeed); len(got) != digestCount {
			t.Errorf("%s: %d pinned digests, want %d", w, len(got), digestCount)
		}
		if got := referenceDigests(w, heldOutSeed); got != nil {
			t.Errorf("%s: digests pinned for a non-default seed", w)
		}
	}
	if err := (refEntry{SHA256: "x"}).match("w", 0, "y"); err == nil {
		t.Error("digest mismatch not reported")
	}
}

func TestShortPercentileMarksRunInvalid(t *testing.T) {
	r := &report{}
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	if v := percentileMs(lat, 0.9, "hits", 1, r); v != 90 || len(r.invalid) != 0 {
		t.Fatalf("p90 of 100 = %g, invalid %v; want 90 and a valid run", v, r.invalid)
	}
	percentileMs(lat[:99], 0.9, "hits", 1, r)
	if len(r.invalid) != 1 {
		t.Fatalf("p90 of 99 samples left the run valid: %v", r.invalid)
	}
	// A refused request reads as the window, a lower bound on its latency.
	if v := percentileMs([]float64{math.Inf(1)}, 0.5, "misses", 2, r); v != 2000 {
		t.Errorf("refused latency = %g ms, want the 2000 ms window", v)
	}
}
