package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"pnps/internal/stats"
	"pnps/internal/study"
	"pnps/internal/studycli"
)

// The recipes below are the benchmark's inputs. Every one is a wire
// recipe (what pnserve, pncoord and `pnstudy -worker` accept), derived
// from the workload seed alone; the program only ever sees the bytes.

// histogram settings shared by every recipe: the dwell histogram is on
// in every workload, as in pnstudy's defaults.
const (
	histBins = 100
	histLo   = 0
	histHi   = 10
)

// shortRecipe is one study-short (and coord-chunks) study: stress-clouds
// at 10–20 s simulated × 2 storage × 3 control × 8 reps = 48 runs, where
// per-run fixed costs are about a tenth of the time.
func shortRecipe(rng *rand.Rand) studycli.Config {
	return studycli.Config{
		Scenario: "stress-clouds", Duration: float64(10 + rng.Intn(11)),
		Storage: "ideal:0.047,supercap:0.047", Control: "pn,static,ondemand",
		Reps: 8, Seed: rng.Int63(), Bins: histBins, HistLo: histLo, HistHi: histHi,
	}
}

// longRecipe is one study-long study: table2-harvest × {ideal,
// supercap, hybrid} × 2 reps, where integration is more than 99.9% of
// the time and a hybrid run costs several times the others.
func longRecipe(rng *rand.Rand) studycli.Config {
	return studycli.Config{
		Scenario: "table2-harvest", Duration: longDuration,
		Storage: "ideal:0.047,supercap:0.047,hybrid:0.01:1",
		Reps:    2, Seed: rng.Int63(), Bins: histBins, HistLo: histLo, HistHi: histHi,
	}
}

// longDuration is study-long's simulated span: long enough that set-up
// is under 0.1% of a run, short enough for 20+ studies in a run, each
// averaging six weather realisations.
const longDuration = 600

// recipeSource yields a workload's recipe sequence for one seed.
type recipeSource struct {
	rng  *rand.Rand
	make func(*rand.Rand) studycli.Config
}

func newRecipeSource(seed int64, make func(*rand.Rand) studycli.Config) *recipeSource {
	return &recipeSource{rng: rand.New(rand.NewSource(seed)), make: make}
}

func (s *recipeSource) next() []byte { return mustJSON(s.make(s.rng)) }

// take returns the next n recipes.
func (s *recipeSource) take(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs are marshalled
	}
	return raw
}

// buildRecipe decodes and builds a wire recipe, as every service does.
func buildRecipe(raw []byte) (study.Study, error) {
	cfg, err := studycli.DecodeConfig(raw)
	if err != nil {
		return study.Study{}, err
	}
	return cfg.Build()
}

// studyRuns is cells × reps of a built study.
func studyRuns(st study.Study) int {
	cells := 1
	for _, ax := range st.Axes {
		cells *= len(ax.Levels)
	}
	reps := st.Reps
	if reps == 0 {
		reps = 1
	}
	return cells * reps
}

// checkOutcome verifies what every study must report: cells × reps runs
// and finite summaries, study-wide and per cell.
func checkOutcome(st study.Study, out *study.StudyOutcome) error {
	if want := studyRuns(st); out.Summary.Runs != want {
		return fmt.Errorf("study reports %d runs, want %d", out.Summary.Runs, want)
	}
	if !summaryFinite(out.Summary) {
		return fmt.Errorf("study summary holds a non-finite value")
	}
	for _, c := range out.Cells {
		if !summaryFinite(c.Summary) {
			return fmt.Errorf("cell %q summary holds a non-finite value", c.Cell.Key)
		}
	}
	return nil
}

func summaryFinite(s study.Summary) bool {
	xs := []float64{s.SurvivalRate}
	for _, q := range []stats.Summary{s.Stability, s.Instructions, s.LifetimeSeconds, s.FinalVC, s.MinVC, s.StorageEnergyDeltaJ} {
		xs = append(xs, q.Min, q.Max, q.Mean, q.StdDev, q.Median, q.P5, q.P95, q.P25, q.P75)
	}
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// simSeconds is the simulated time a study covers.
func simSeconds(st study.Study) float64 {
	return float64(studyRuns(st)) * st.Base.Duration
}
