package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"pnps/internal/serve"
	"pnps/internal/studycli"
)

const (
	// servePopulation is the number of distinct base recipes.
	servePopulation = 16
	// serveRate is the open-loop reference rate, requests per second: at
	// most half the max_rps this mix reaches on the 2-CPU machine the
	// benchmark was sized on (160 to 320), so the server is loaded but
	// keeps up.
	serveRate = 80.0
	// serveCacheBytes is below the hit population's footprint (about
	// 450 KiB of rendered outcomes and cell records), and misses keep
	// writing new entries: LRU eviction runs all the time and the least
	// popular recipes drop out between their repeats.
	serveCacheBytes = 416 << 10
	// serveLimitMs is the all-class p90 latency limit of the max_rps
	// ladder. The ladder judges p90, not p99: a rung would need 1000
	// requests for a p99 with ten samples beyond it.
	serveLimitMs = 100.0
	// rungRequests is the size of one ladder rung at full budget.
	// The rungs are ladderRates.
	rungRequests = 200
	// lagBoundMs is the load generator's p99 lateness above which the
	// serve measurement is marked invalid.
	lagBoundMs = 50.0
	// minPhaseRequests is the smallest untraced phase of the traced pass:
	// with a third of requests sent as repeats and some of those evicted,
	// it leaves well over the 100 hits and 100 misses a p90 needs.
	minPhaseRequests = 1200
)

// ladderRates are the fixed rates, requests per second, of the max_rps
// ladder.
var ladderRates = []float64{80, 160, 320, 640}

// The mix, per block of three requests: one exact repeat of a population
// recipe (a whole-study hit unless evicted), one population recipe with
// a new storage level (cached cells reused, new cells simulated) and one
// fresh seed (cold). No pnserve traffic has been recorded, so nothing
// favours one class over another and each gets the same share.
var serveDeck = []string{"hit", "partial", "cold"}

// runSeconds is the simulated length of every serve-mixed run.
const runSeconds = 10

// populationRecipe is one base recipe: 2 storage × 2 control × 2 reps of
// a 10 s stress-clouds run.
func populationRecipe(rng *rand.Rand) studycli.Config {
	return studycli.Config{
		Scenario: "stress-clouds", Duration: runSeconds,
		Storage: "ideal:0.047,supercap:0.047", Control: "pn,static",
		Reps: 2, Seed: rng.Int63(), Bins: histBins, HistLo: histLo, HistHi: histHi,
	}
}

// serveMix is serve-mixed's input: the population and a request
// sequence with skewed (Zipf, s = 1.1) popularity, both from the seed.
type serveMix struct {
	popCfg []studycli.Config
	pop    [][]byte
	cum    []float64
	rng    *rand.Rand
	deck   []string
}

func newServeMix(seed int64) *serveMix {
	rng := rand.New(rand.NewSource(seed))
	m := &serveMix{rng: rng}
	var total float64
	for k := 0; k < servePopulation; k++ {
		cfg := populationRecipe(rng)
		m.popCfg = append(m.popCfg, cfg)
		m.pop = append(m.pop, mustJSON(cfg))
		total += math.Pow(float64(k+1), -1.1)
		m.cum = append(m.cum, total)
	}
	for k := range m.cum {
		m.cum[k] /= total
	}
	return m
}

// serveReq is one request of the mix.
type serveReq struct {
	class string // as sent: hit, partial or cold
	body  []byte
}

func (m *serveMix) next() serveReq {
	if len(m.deck) == 0 {
		m.deck = append([]string(nil), serveDeck...)
		m.rng.Shuffle(len(m.deck), func(i, j int) { m.deck[i], m.deck[j] = m.deck[j], m.deck[i] })
	}
	class := m.deck[0]
	m.deck = m.deck[1:]
	u := m.rng.Float64()
	k := 0
	for k < len(m.cum)-1 && m.cum[k] < u {
		k++
	}
	cfg := m.popCfg[k]
	switch class {
	case "hit":
		return serveReq{class, m.pop[k]}
	case "partial":
		cfg.Storage += fmt.Sprintf(",ideal:%.5f", 0.01+0.03*m.rng.Float64())
	case "cold":
		cfg.Seed = m.rng.Int63()
	}
	return serveReq{class, mustJSON(cfg)}
}

// take returns the next n requests.
func (m *serveMix) take(n int) []serveReq {
	out := make([]serveReq, n)
	for i := range out {
		out[i] = m.next()
	}
	return out
}

// serveEnv is an in-process serve.Server on a loopback listener with a
// client limited to GOMAXPROCS connections.
type serveEnv struct {
	srv       *serve.Server
	hs        *http.Server
	base      string
	transport *http.Transport
	client    *http.Client
	served    chan error
}

func startServe(pop [][]byte) (*serveEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	conns := runtime.GOMAXPROCS(0)
	e := &serveEnv{
		srv:       serve.NewServer(serve.Config{CacheBytes: serveCacheBytes}),
		base:      "http://" + ln.Addr().String(),
		transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		served:    make(chan error, 1),
	}
	e.client = &http.Client{Transport: e.transport}
	e.hs = &http.Server{Handler: e.srv.Handler()}
	go func() { e.served <- e.hs.Serve(ln) }()
	for i, raw := range pop {
		res := e.do(nil, noSpan, i, raw)
		if res.err != nil {
			e.close()
			return nil, fmt.Errorf("prewarming population recipe %d: %w", i, res.err)
		}
	}
	return e, nil
}

// close stops the HTTP server, drains the job workers and waits for both.
func (e *serveEnv) close() {
	// Every request has completed by now, so there is nothing to drain;
	// Shutdown would wait out the 5 s grace it gives connections that
	// were dialled but never carried a request.
	if err := e.hs.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: serve listener close: %v\n", err)
	}
	if err := <-e.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: serve listener: %v\n", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: serve drain: %v\n", err)
	}
	e.transport.CloseIdleConnections()
}

// serveResult is one request's outcome as the client saw it.
type serveResult struct {
	status  serve.JobStatus
	refused bool
	body    []byte
	err     error
}

// do submits a recipe, waits for its job (Server.WaitJob signals
// completion) and fetches the JSON outcome to its last byte.
func (e *serveEnv) do(tr *tracer, parent spanID, req int, body []byte) serveResult {
	var res serveResult
	if tr != nil {
		// What the server does first with the bytes, timed on the same
		// input: the per-request recipe decode and build.
		sp := tr.start("studycli.build", parent, req)
		_, err := buildRecipe(body)
		tr.end(sp)
		if err != nil {
			res.err = err
			return res
		}
	}
	sp := tr.start("serve.submit", parent, req)
	resp, err := e.client.Post(e.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		tr.end(sp)
		res.err = err
		return res
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(sp)
	switch {
	case err != nil:
		res.err = err
		return res
	case resp.StatusCode == http.StatusTooManyRequests:
		res.refused = true
		return res
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		res.err = fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, raw)
		return res
	}
	if err := json.Unmarshal(raw, &res.status); err != nil {
		res.err = fmt.Errorf("submit: %w", err)
		return res
	}
	if res.status.State != serve.JobDone {
		sp = tr.start("serve.job", parent, req)
		res.status, err = e.srv.WaitJob(context.Background(), res.status.ID)
		tr.end(sp)
		if err != nil {
			res.err = err
			return res
		}
		if res.status.State != serve.JobDone {
			res.err = fmt.Errorf("job %s ended %s: %s", res.status.ID, res.status.State, res.status.Error)
			return res
		}
	}
	sp = tr.start("serve.outcome", parent, req)
	resp, err = e.client.Get(e.base + "/v1/jobs/" + res.status.ID + "/outcome")
	if err == nil {
		res.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("outcome: HTTP %d: %s", resp.StatusCode, res.body)
		}
	}
	tr.end(sp)
	res.err = err
	return res
}

// loadResult is one open-loop phase.
type loadResult struct {
	lat        []float64 // ms from due time to last byte; +Inf when refused
	hitLat     []float64
	missLat    []float64
	missRate   []float64 // simulated s per latency s of each miss; 0 when refused
	lags       []float64
	refused    int
	hits       int
	misses     int
	simRuns    int
	cells      int
	cachedCell int
	backlogMax int64
	backlogEnd int
	wall       float64 // schedule start to last completion, seconds
	allocBytes uint64
	gc         float64
	bodies     []serveCheck
}

// serveCheck is what verification needs of one response.
type serveCheck struct {
	body []byte // the recipe
	sha  string // of the outcome bytes; empty when nothing was served
}

// load runs reqs open loop at rate and collects the phase's figures.
func (e *serveEnv) load(seed int64, rate float64, reqs []serveReq, tr *tracer, r *report) loadResult {
	sched := arrivals(seed, rate, len(reqs))
	lr := loadResult{lat: make([]float64, len(reqs)), bodies: make([]serveCheck, len(reqs))}
	results := make([]serveResult, len(reqs))
	window := sched[len(sched)-1]
	doneAt := make([]time.Duration, len(reqs))
	var inflight, peak atomic.Int64
	before := readRuntime()
	start := time.Now().Add(5 * time.Millisecond)
	lr.lags = openLoop(start, sched, func(i int, due time.Time) {
		n := inflight.Add(1)
		for m := peak.Load(); n > m && !peak.CompareAndSwap(m, n); m = peak.Load() {
		}
		root := tr.start("bench.request", noSpan, i)
		results[i] = e.do(tr, root, i, reqs[i].body)
		tr.end(root)
		doneAt[i] = time.Since(start)
		inflight.Add(-1)
	})
	lr.wall = time.Since(start).Seconds()
	after := readRuntime()
	lr.allocBytes = after.allocBytes - before.allocBytes
	lr.gc = gcShare(before, after)
	lr.backlogMax = peak.Load()
	for i, res := range results {
		lr.lat[i] = float64(doneAt[i]-sched[i]) / 1e6
		if doneAt[i] > window {
			// Still outstanding when the last request was sent: the
			// backlog the ladder judges.
			lr.backlogEnd++
		}
		r.op(res.err)
		lr.bodies[i] = serveCheck{body: reqs[i].body}
		switch {
		case res.err != nil:
			lr.lat[i] = math.Inf(1)
		case res.refused:
			lr.refused++
			lr.lat[i] = math.Inf(1)
			lr.missLat = append(lr.missLat, math.Inf(1))
			lr.missRate = append(lr.missRate, 0)
		case res.status.CacheHit:
			lr.hits++
			lr.hitLat = append(lr.hitLat, lr.lat[i])
		default:
			lr.misses++
			lr.missLat = append(lr.missLat, lr.lat[i])
			if res.status.SimulatedRuns > 0 {
				lr.missRate = append(lr.missRate, float64(res.status.SimulatedRuns)*runSeconds/(lr.lat[i]/1e3))
			}
			lr.simRuns += res.status.SimulatedRuns
			lr.cells += res.status.TotalCells
			lr.cachedCell += res.status.CachedCells
		}
		if res.err == nil && !res.refused {
			lr.bodies[i].sha = digest(res.body)
		}
	}
	return lr
}

// verifyServe compares served outcome bytes with an in-process
// Study.Run of the same recipe: every response to a population recipe,
// and an evenly spaced sample of at most 48 of the others.
func verifyServe(checks []serveCheck, pop [][]byte, r *report) {
	refs := map[string]string{}
	ref := func(body []byte) (string, error) {
		if sha, ok := refs[string(body)]; ok {
			return sha, nil
		}
		_, _, js, err := runStudy(body)
		if err != nil {
			return "", err
		}
		refs[string(body)] = digest(js)
		return refs[string(body)], nil
	}
	isPop := map[string]bool{}
	for _, p := range pop {
		isPop[string(p)] = true
	}
	var others []serveCheck
	for _, c := range checks {
		if c.sha == "" {
			continue
		}
		if !isPop[string(c.body)] {
			others = append(others, c)
			continue
		}
		sha, err := ref(c.body)
		r.check(err)
		r.check(agree("serve-mixed", 0, "served outcome vs Study.Run", err == nil && sha != c.sha))
	}
	step := max(1, (len(others)+47)/48)
	for i := 0; i < len(others); i += step {
		sha, err := ref(others[i].body)
		r.check(err)
		r.check(agree("serve-mixed", i, "served outcome vs Study.Run", err == nil && sha != others[i].sha))
	}
}

// percentileMs is the q-quantile of latencies xs. A percentile with
// fewer than ten samples beyond it marks the run invalid.
func percentileMs(xs []float64, q float64, what string, window float64, r *report) float64 {
	v, ok := quantile(sorted(xs), q)
	if !ok {
		r.invalid = append(r.invalid, fmt.Sprintf("%s has %d samples, too few for 10 beyond p%g", what, len(xs), q*100))
	}
	if math.IsInf(v, 1) {
		// A refused request never completes; report the window, a lower
		// bound on its latency.
		v = window * 1e3
	}
	return v
}

// serveE2E measures serve-mixed: the reference rate, open loop. The
// hit path is measured by op_p50_ms, the median hit latency; the miss
// path by sim_s_per_s, the median over misses of the simulated seconds
// each one ran over its latency (a refused request ran none).
func serveE2E(o opts, r *report) {
	setup := setupTimes(o, setupRepeats/2)
	mix := newServeMix(o.seed)
	env, err := startServe(mix.pop)
	if err != nil {
		fatal(fmt.Errorf("set-up: %w", err))
	}
	defer env.close()
	checkPopulation(o, mix, r)

	reqs := mix.take(int(serveRate * o.seconds))
	lr := env.load(o.seed, serveRate, reqs, nil, r)
	r.set("setup_s", median(append(setup, setupTimes(o, setupRepeats/2)...)))
	lagCheck(lr, r)
	r.set("op_p50_ms", percentileMs(lr.hitLat, 0.5, "hits", lr.wall, r))
	if len(lr.missRate) < 2*minBeyond {
		r.invalid = append(r.invalid, fmt.Sprintf("%d misses, too few for 10 beyond their median", len(lr.missRate)))
	}
	r.set("sim_s_per_s", median(lr.missRate))
	r.set("alloc_kb_per_op", float64(lr.allocBytes)/1024/float64(len(reqs)))
	verifyServe(lr.bodies, mix.pop, r)
}

// serveSetup starts a server and prewarms the population.
func serveSetup(o opts) error {
	_, err := startServe(newServeMix(o.seed).pop)
	return err
}

// checkPopulation pins the default seed's population outcomes.
func checkPopulation(o opts, mix *serveMix, r *report) {
	for i, ref := range referenceDigests("serve-mixed", o.seed) {
		_, _, js, err := runStudy(mix.pop[i])
		r.check(err)
		if err == nil {
			r.check(ref.match("serve-mixed", i, digest(js)))
		}
	}
}

func lagCheck(lr loadResult, r *report) float64 {
	lag := percentileMs(lr.lags, 0.99, "load generator lags", lr.wall, r)
	if lag > lagBoundMs {
		r.invalid = append(r.invalid, fmt.Sprintf("load generator p99 lag %.1f ms exceeds %.0f ms", lag, lagBoundMs))
	}
	return lag
}

// serveTraced is serve-mixed's traced pass on one prewarmed server:
// an untraced reference-rate phase (class latencies, cache ratios), a
// traced phase at the same rate (layer times, tracing overhead) and the
// rate ladder for max_rps.
func serveTraced(o opts, r *report, seconds float64) map[string]float64 {
	mix := newServeMix(o.seed)
	env, err := startServe(mix.pop)
	if err != nil {
		fatal(err)
	}
	defer env.close()
	checkPopulation(o, mix, r)

	ev0 := env.srv.CacheStats().Evictions
	reqsA := mix.take(max(minPhaseRequests, int(serveRate*seconds*0.8)))
	a := env.load(o.seed, serveRate, reqsA, nil, r)
	evictions := env.srv.CacheStats().Evictions - ev0
	lag := lagCheck(a, r)

	tr := newTracer()
	reqsB := mix.take(int(serveRate * seconds * 0.1))
	b := env.load(o.seed+1, serveRate, reqsB, tr, r)
	r.spans["serve-mixed"] = tr.snapshot()
	p := newProfile(r.spans["serve-mixed"])

	var rungs []rung
	refused := a.refused + b.refused
	attempted := len(reqsA) + len(reqsB)
	perRung := max(100, int(rungRequests*seconds/12))
	for i, rate := range ladderRates {
		reqs := mix.take(perRung)
		lr := env.load(o.seed+2+int64(i), rate, reqs, nil, r)
		refused += lr.refused
		attempted += len(reqs)
		p90, ok := quantile(sorted(lr.lat), 0.9)
		rg := rung{Rate: rate, TailMs: p90, TailOK: ok, Backlog: lr.backlogEnd}
		rungs = append(rungs, rg)
		if !rg.passes(serveLimitMs) {
			break
		}
	}
	verifyServe(append(a.bodies, b.bodies...), mix.pop, r)

	served := a.hits + a.misses
	return map[string]float64{
		"studycli.build_us":     p.meanSelfUs("studycli.build"),
		"serve.submit_us":       p.meanInclUs("serve.submit"),
		"serve.outcome_us":      p.meanInclUs("serve.outcome"),
		"serve.job_ms":          p.meanInclUs("serve.job") / 1e3,
		"serve.backlog_max":     float64(a.backlogMax),
		"serve.study_hit_ratio": float64(a.hits) / float64(served),
		"serve.cell_hit_ratio":  float64(a.cachedCell) / float64(a.cells),
		"serve.evictions":       float64(evictions),
		"serve.runs_per_miss":   float64(a.simRuns) / float64(a.misses),
		"serve.hit_p50_ms":      percentileMs(a.hitLat, 0.5, "hits", a.wall, r),
		"serve.hit_p90_ms":      percentileMs(a.hitLat, 0.9, "hits", a.wall, r),
		"serve.miss_p50_ms":     percentileMs(a.missLat, 0.5, "misses", a.wall, r),
		"serve.miss_p90_ms":     percentileMs(a.missLat, 0.9, "misses", a.wall, r),
		"serve.reject_ratio":    float64(refused) / float64(attempted),
		"loadgen.max_rps":       maxRate(rungs, serveLimitMs),
		"loadgen.lag_p99_ms":    lag,
		"runtime.gc_cpu_share":  a.gc,
		"trace.overhead_share":  (median(b.lat) - median(a.lat)) / median(a.lat),
		"trace.coverage":        p.coverage(),
	}
}
