package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"time"

	"pnps/internal/scenario"
	"pnps/internal/sim"
	"pnps/internal/study"
	"pnps/internal/studycli"
)

// studyKind is one in-process study workload.
type studyKind struct {
	name   string
	recipe func(*rand.Rand) studycli.Config
	// opsPerSecond estimates how many studies one host second completes,
	// which sizes the fixed-count traced pass. The count depends only on
	// the run length, so traced counts repeat exactly for a seed.
	opsPerSecond float64
}

// warmRecipe is the small study every set-up runs once, so lazily built
// tables and the heap are warm before the first measured operation.
var warmRecipe = mustJSON(studycli.Config{
	Scenario: "stress-clouds", Duration: 10, Storage: "ideal:0.047,supercap:0.047,hybrid:0.01:1",
	Control: "pn,ondemand", Reps: 2, Seed: 1, Bins: histBins, HistLo: histLo, HistHi: histHi,
})

var (
	shortKind = studyKind{name: "study-short", recipe: shortRecipe, opsPerSecond: 40}
	longKind  = studyKind{name: "study-long", recipe: longRecipe, opsPerSecond: 1.5}
)

// setupRepeats is how many fresh processes a run times its set-up in,
// half before the measured phase and half after it; setup_s is the
// median. A shared machine's speed shifts in phases seconds long, so two
// batches a measured phase apart see more of them than one batch.
const setupRepeats = 20

// runStudy decodes, builds and runs one recipe in process with default
// workers (GOMAXPROCS) and checks the outcome's shape.
func runStudy(raw []byte) (study.Study, *study.StudyOutcome, []byte, error) {
	st, err := buildRecipe(raw)
	if err != nil {
		return st, nil, nil, err
	}
	out, err := st.Run(context.Background())
	if err != nil {
		return st, nil, nil, err
	}
	if err := checkOutcome(st, out); err != nil {
		return st, nil, nil, err
	}
	var buf bytes.Buffer
	if err := out.WriteJSON(&buf); err != nil {
		return st, nil, nil, err
	}
	return st, out, buf.Bytes(), nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// studyE2E measures a study workload: a closed loop of Study.Run calls
// over fresh recipes for the run's seconds.
func studyE2E(k studyKind) func(o opts, r *report) {
	return func(o opts, r *report) {
		setup := setupTimes(o, setupRepeats/2)
		src, recipes, err := studySetup(k, o)
		if err != nil {
			fatal(fmt.Errorf("set-up: %w", err))
		}
		ref := referenceDigests(k.name, o.seed)

		var lat, rate []float64
		before := readRuntime()
		start := time.Now()
		for i := 0; time.Since(start).Seconds() < o.seconds; i++ {
			t0 := time.Now()
			var raw []byte
			if i < len(recipes) {
				raw = recipes[i]
			} else {
				raw = src.next() // past the recipes built in set-up
			}
			st, _, out, err := runStudy(raw)
			lat = append(lat, time.Since(t0).Seconds()*1e3)
			r.op(err)
			if err != nil {
				continue
			}
			rate = append(rate, simSeconds(st)/lat[len(lat)-1]*1e3)
			if i < len(ref) {
				r.check(ref[i].match(k.name, i, digest(out)))
			}
		}
		after := readRuntime()
		r.set("setup_s", median(append(setup, setupTimes(o, setupRepeats/2)...)))
		if len(lat) < len(ref) {
			r.check(fmt.Errorf("%s: only %d studies ran, fewer than the %d with committed digests", k.name, len(lat), len(ref)))
		}
		// The median over operations, not the total over the run: a
		// stall from outside the program moves a few operations, not the
		// figure.
		r.set("sim_s_per_s", median(rate))
		r.set("op_p50_ms", median(lat))
		r.set("alloc_kb_per_op", float64(after.allocBytes-before.allocBytes)/1024/float64(len(lat)))
	}
}

// studySetup builds the recipes the run is expected to use and runs the
// warm-up study.
func studySetup(k studyKind, o opts) (*recipeSource, [][]byte, error) {
	src := newRecipeSource(o.seed, k.recipe)
	recipes := src.take(int(k.opsPerSecond*o.seconds) + 1)
	_, _, _, err := runStudy(warmRecipe)
	return src, recipes, err
}

// setupTimes times the workload's set-up in n fresh processes of this
// binary, one after another, each from its start to its exit right after
// set-up. A fresh process pays for process start and every lazily built
// table, as a user's first operation does; a set-up repeated in this
// process would find them warm.
func setupTimes(o opts, n int) []float64 {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	var ts []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "--setup-only", "--workload", o.workload,
			"--seed", strconv.FormatInt(o.seed, 10), "--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64))
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			fatal(fmt.Errorf("set-up: %w", err))
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return ts
}

// sampleCounter counts the engine's samples. It reads nothing from a
// sample and says so (SupplyOnly), so attaching it keeps the run on the
// same path as an untraced one: the platform bookkeeping stays off.
type sampleCounter struct{ n int64 }

func (c *sampleCounter) Observe(*sim.Sample) { c.n++ }
func (c *sampleCounter) SupplyOnly() bool    { return true }

// replicaOut is what one replayed study produced.
type replicaOut struct {
	json       []byte
	samples    []int64 // per ledger task
	interrupts []int   // per ledger task
	simSec     float64
}

// replayStudy executes a recipe serially through the public calls a
// study makes per cell and per run: studycli build, cell identities,
// scenario assembly, sim.Run, cell checkpoint, chunk fold, outcome and
// render. Its outcome must be byte-identical to Study.Run's, which the
// traced pass checks. With a nil tracer it is the untraced reference
// for the tracing overhead.
func replayStudy(tr *tracer, req int, raw []byte) (replicaOut, error) {
	var ro replicaOut
	root := tr.start("bench.op", noSpan, req)
	defer tr.end(root)

	sp := tr.start("studycli.build", root, req)
	st, err := buildRecipe(raw)
	tr.end(sp)
	if err != nil {
		return ro, err
	}
	sp = tr.start("study.plan", root, req)
	ids, err := st.CellIdentities()
	var folder *study.Folder
	if err == nil {
		folder, err = st.NewFolder(len(ids[0].Seeds))
	}
	tr.end(sp)
	if err != nil {
		return ro, err
	}
	for c, id := range ids {
		chunk := tr.start("study.chunk", root, req)
		recs := make([]study.TaskRecord, len(id.Seeds))
		for rep, seed := range id.Seeds {
			spec := st.Base
			spec.SkipSeries = true
			for i, lv := range id.Levels {
				for _, l := range st.Axes[i].Levels {
					if l.Label == lv.Level {
						l.Apply(&spec)
					}
				}
			}
			rec, n, res, err := runOne(tr, chunk, req, spec, seed, st)
			if err != nil {
				tr.end(chunk)
				return ro, fmt.Errorf("cell %d rep %d: %w", c, rep, err)
			}
			rec.Index = rep
			recs[rep] = rec
			ro.samples = append(ro.samples, n)
			ro.interrupts = append(ro.interrupts, res.Interrupts)
			ro.simSec += spec.Duration
		}
		tr.end(chunk)

		sp = tr.start("study.cell_restore", root, req)
		cp, err := st.CellCheckpoint(c, recs)
		tr.end(sp)
		if err != nil {
			return ro, err
		}
		sp = tr.start("study.fold", root, req)
		err = folder.Fold(c, cp)
		tr.end(sp)
		if err != nil {
			return ro, err
		}
	}
	sp = tr.start("study.outcome", root, req)
	out, err := folder.Outcome()
	tr.end(sp)
	if err != nil {
		return ro, err
	}
	if err := checkOutcome(st, out); err != nil {
		return ro, err
	}
	var buf bytes.Buffer
	sp = tr.start("study.render", root, req)
	err = out.WriteJSON(&buf)
	tr.end(sp)
	ro.json = buf.Bytes()
	return ro, err
}

// runOne assembles and integrates one run with the observers a study
// attaches (stability bands, the dwell histogram) plus the sample
// counter, and cuts its checkpoint record.
func runOne(tr *tracer, parent spanID, req int, spec scenario.Spec, seed int64, st study.Study) (study.TaskRecord, int64, *sim.Result, error) {
	sp := tr.start("scenario.assemble", parent, req)
	cfg, err := spec.Assemble(seed)
	tr.end(sp)
	if err != nil {
		return study.TaskRecord{}, 0, nil, err
	}
	cfg.StabilityBands = append(append([]float64(nil), cfg.StabilityBands...), study.DefaultStabilityBands...)
	tis, err := sim.NewTimeInStateObserver(sim.ChanVC, st.VCHistLo, st.VCHistHi, st.VCHistBins)
	if err != nil {
		return study.TaskRecord{}, 0, nil, err
	}
	counter := &sampleCounter{}
	cfg.Observers = append(append([]sim.Observer(nil), cfg.Observers...), tis, counter)
	sp = tr.start("sim.run", parent, req)
	res, err := sim.Run(cfg)
	tr.end(sp)
	if err != nil {
		return study.TaskRecord{}, 0, nil, err
	}
	h := tis.Hist
	return study.TaskRecord{
		Seed: seed,
		Metrics: study.RunMetrics{
			Survived:            !res.BrownedOut,
			Brownouts:           res.Brownouts,
			Stability:           res.StabilityWithin(0.05),
			Instructions:        res.Instructions,
			LifetimeSeconds:     res.LifetimeSeconds,
			FinalVC:             res.FinalVC,
			MinVC:               res.VCEnvelope.Min,
			StorageEnergyDeltaJ: res.StorageEnergyEndJ - res.StorageEnergyStartJ,
		},
		HistBins: append([]float64(nil), h.Bins...), HistUnder: h.Underflow(),
		HistOver: h.Overflow(), HistTotal: h.Total(),
	}, counter.n, res, nil
}

// studyTraced is a study workload's traced pass over a fixed number of
// its recipes, run three ways:
//
//	A  Study.Run with default workers, untraced (the end-to-end path)
//	B  the serial replay, traced
//	C  the serial replay, untraced
//
// A and B must agree byte for byte and in interrupt counts; B and C in
// sample counts. B's spans give the layer times; B against C gives the
// tracing overhead; B against A the parallel efficiency.
func studyTraced(k studyKind) func(o opts, r *report, seconds float64) map[string]float64 {
	return func(o opts, r *report, seconds float64) map[string]float64 {
		// Each phase gets about a third of the budget; A runs in parallel
		// and finishes sooner, so the replays get the slack.
		n := max(2, int(k.opsPerSecond*seconds/3))
		recipes := newRecipeSource(o.seed, k.recipe).take(n)
		ref := referenceDigests(k.name, o.seed)
		if _, _, _, err := runStudy(warmRecipe); err != nil {
			fatal(fmt.Errorf("warm-up: %w", err))
		}

		outA := make([][]byte, n)
		intA := make([][]int, n)
		before := readRuntime()
		t0 := time.Now()
		for i, raw := range recipes {
			_, out, js, err := runStudy(raw)
			r.op(err)
			if err != nil {
				continue
			}
			outA[i] = js
			for _, res := range out.Results {
				intA[i] = append(intA[i], res.Result.Interrupts)
			}
		}
		wallA := time.Since(t0).Seconds()
		gc := gcShare(before, readRuntime())

		// B and C alternate per recipe, so both see the same machine.
		tr := newTracer()
		var samples int64
		var interrupts int
		var simSec, wallB, wallC float64
		for i, raw := range recipes {
			t0 := time.Now()
			ro, err := replayStudy(tr, i, raw)
			wallB += time.Since(t0).Seconds()
			r.op(err)
			if err != nil {
				continue
			}
			for j := range ro.samples {
				samples += ro.samples[j]
				interrupts += ro.interrupts[j]
			}
			simSec += ro.simSec
			r.check(agree(k.name, i, "traced replay vs Study.Run outcome", !bytes.Equal(ro.json, outA[i])))
			r.check(agree(k.name, i, "interrupts traced vs untraced", !slices.Equal(ro.interrupts, intA[i])))
			if i < len(ref) {
				r.check(ref[i].matchCounts(k.name, i, digest(ro.json), ro.samples, ro.interrupts))
			}

			t0 = time.Now()
			again, err := replayStudy(nil, i, raw)
			wallC += time.Since(t0).Seconds()
			r.op(err)
			if err == nil {
				r.check(agree(k.name, i, "samples across repeated runs", !slices.Equal(again.samples, ro.samples)))
			}
		}

		r.spans[k.name] = tr.snapshot()
		p := newProfile(r.spans[k.name])
		return map[string]float64{
			"studycli.build_us":       p.meanSelfUs("studycli.build"),
			"scenario.assemble_us":    p.meanSelfUs("scenario.assemble"),
			"scenario.assemble_share": float64(p.selfNs("scenario.assemble")) / (wallB * 1e9),
			"sim.run_us":              p.meanSelfUs("sim.run"),
			"sim.ns_per_sample":       float64(p.selfNs("sim.run")) / float64(samples),
			"sim.samples_per_sim_s":   float64(samples) / simSec,
			"sim.interrupts":          float64(interrupts),
			"batch.parallel_eff":      wallB / (float64(runtime.GOMAXPROCS(0)) * wallA),
			"study.chunk_ms":          p.meanInclUs("study.chunk") / 1e3,
			"study.fold_us":           p.meanSelfUs("study.fold"),
			"study.outcome_us":        p.meanSelfUs("study.outcome"),
			"study.render_us":         p.meanSelfUs("study.render"),
			"study.cell_restore_us":   p.meanSelfUs("study.cell_restore"),
			"runtime.gc_cpu_share":    gc,
			"trace.overhead_share":    (wallB - wallC) / wallC,
			"trace.coverage":          p.coverage(),
		}
	}
}

// agree turns a failed comparison into an error naming it.
func agree(workload string, i int, what string, differ bool) error {
	if differ {
		return fmt.Errorf("%s op %d: %s differ", workload, i, what)
	}
	return nil
}

// studySetupOnly is a study workload's set-up alone.
func studySetupOnly(k studyKind) func(o opts) error {
	return func(o opts) error {
		_, _, err := studySetup(k, o)
		return err
	}
}
