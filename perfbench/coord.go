package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pnps/internal/coord"
	"pnps/internal/study"
)

// coordChunk is coord-chunks' lease size in tasks: a 48-run study is
// twelve leases, so coordination is paid per few runs.
const coordChunk = 4

// coordEnv is one loopback listener whose handler is swapped to each
// study's coordinator in turn, so connections are reused across studies
// instead of churning ports. Each study is served under its own path
// prefix: a request a cancelled worker of the previous study sent just
// before the swap then gets a 404 instead of leasing a chunk of the next
// study to a worker that is gone, which would stall that study for the
// whole lease TTL.
type coordEnv struct {
	handler   atomic.Pointer[http.Handler]
	studies   atomic.Int64
	hs        *http.Server
	base      string
	transport *http.Transport
	served    chan error
	scratch   string
}

func startCoord(scratch string) (*coordEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	conns := runtime.GOMAXPROCS(0)
	e := &coordEnv{
		base:      "http://" + ln.Addr().String(),
		transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		served:    make(chan error, 1),
		scratch:   scratch,
	}
	e.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*e.handler.Load()).ServeHTTP(w, r)
	})}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

func (e *coordEnv) close() {
	// Every request has completed by now, so there is nothing to drain;
	// Shutdown would wait out the 5 s grace it gives connections that
	// were dialled but never carried a request.
	if err := e.hs.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: coord listener close: %v\n", err)
	}
	if err := <-e.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: coord listener: %v\n", err)
	}
	e.transport.CloseIdleConnections()
}

// coordStats accumulates the client-side coordination figures of a
// traced phase.
type coordStats struct {
	mu        sync.Mutex
	leaseNs   []int64
	submitNs  []int64
	lastLease map[string]time.Time // per worker, end of its last lease
	busyNs    int64                // workers' time between a lease and its submission
	submits   int

	chunks       int
	journalBytes int64
	workers      int
	wallNs       int64
}

// timingRT times each worker's lease and submit exchanges to the last
// response byte, and infers chunk execution as the gap between a lease
// and the next submission.
type timingRT struct {
	next   http.RoundTripper
	stats  *coordStats
	worker string
	tr     *tracer
	parent spanID
	req    int
}

func (t *timingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	var name string
	switch path := req.URL.Path; {
	case strings.HasSuffix(path, "/v1/lease"):
		name = "coord.lease"
	case strings.HasSuffix(path, "/v1/chunks"):
		name = "coord.submit"
		t.stats.mu.Lock()
		if lease, ok := t.stats.lastLease[t.worker]; ok {
			t.stats.busyNs += start.Sub(lease).Nanoseconds()
			t.tr.record("study.chunk", t.parent, t.req, lease, start)
			delete(t.stats.lastLease, t.worker)
		}
		t.stats.submits++
		t.stats.mu.Unlock()
	default:
		return t.next.RoundTrip(req)
	}
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		end := time.Now()
		t.tr.record(name, t.parent, t.req, start, end)
		t.stats.mu.Lock()
		defer t.stats.mu.Unlock()
		if name == "coord.lease" {
			t.stats.leaseNs = append(t.stats.leaseNs, end.Sub(start).Nanoseconds())
			t.stats.lastLease[t.worker] = end
		} else {
			t.stats.submitNs = append(t.stats.submitNs, end.Sub(start).Nanoseconds())
		}
	}}
	return resp, nil
}

// timedBody calls done once, when the body is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// runCoordStudy runs one recipe through a fresh journalled coordinator
// and GOMAXPROCS in-process workers, one run at a time each, and
// returns the outcome bytes served by GET /v1/outcome.
func (e *coordEnv) runCoordStudy(tr *tracer, req int, raw []byte, cs *coordStats) ([]byte, error) {
	t0 := time.Now()
	root := tr.start("bench.op", noSpan, req)
	defer tr.end(root)
	sp := tr.start("studycli.build", root, req)
	st, err := buildRecipe(raw)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	journal := filepath.Join(e.scratch, fmt.Sprintf("journal-%d", req))
	sp = tr.start("coord.start", root, req)
	srv, err := coord.NewServer(coord.Config{
		Study: st, ChunkSize: coordChunk, Recipe: raw, JournalPath: journal, JournalSync: coord.SyncOff,
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	defer os.Remove(journal)
	prefix := fmt.Sprintf("/study-%d", e.studies.Add(1))
	var h http.Handler = http.StripPrefix(prefix, srv.Handler())
	e.handler.Store(&h)

	ctx, cancel := context.WithCancel(context.Background())
	n := runtime.GOMAXPROCS(0)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		name := fmt.Sprintf("w%d", w)
		var rt http.RoundTripper = e.transport
		if cs != nil {
			rt = &timingRT{next: e.transport, stats: cs, worker: name, tr: tr, parent: root, req: req}
		}
		worker := &coord.Worker{
			URL: e.base + prefix, Name: name, Workers: 1, HTTP: &http.Client{Transport: rt},
			BuildStudy: func(recipe json.RawMessage) (study.Study, error) { return buildRecipe(recipe) },
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = worker.Run(ctx)
		}(w)
	}
	<-srv.Done()
	sp = tr.start("coord.outcome", root, req)
	out, err := e.fetchOutcome(prefix)
	tr.end(sp)
	cancel()
	wg.Wait()
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	for _, werr := range errs {
		if werr != nil && !errors.Is(werr, context.Canceled) && err == nil {
			err = werr
		}
	}
	if cs != nil {
		cs.chunks += srv.Info().NumChunks
		cs.workers = n
		cs.wallNs += time.Since(t0).Nanoseconds()
		if fi, serr := os.Stat(journal); serr == nil {
			cs.journalBytes += fi.Size()
		}
	}
	return out, err
}

func (e *coordEnv) fetchOutcome(prefix string) ([]byte, error) {
	resp, err := (&http.Client{Transport: e.transport}).Get(e.base + prefix + "/v1/outcome")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("outcome: HTTP %d: %s", resp.StatusCode, body)
	}
	return body, err
}

// coordLoop runs coordinated studies over the study-short recipe
// sequence for the given seconds (closed loop) and returns each study's
// latency in ms and simulated seconds per host second, and the outcomes.
func coordLoop(e *coordEnv, src *recipeSource, seconds float64, tr *tracer, cs *coordStats, r *report) (lat, rate []float64, recipes, outs [][]byte) {
	start := time.Now()
	for i := 0; time.Since(start).Seconds() < seconds; i++ {
		raw := src.next()
		t0 := time.Now()
		out, err := e.runCoordStudy(tr, i, raw, cs)
		lat = append(lat, float64(time.Since(t0))/1e6)
		r.op(err)
		if err != nil {
			continue
		}
		st, _ := buildRecipe(raw)
		rate = append(rate, simSeconds(st)/lat[len(lat)-1]*1e3)
		recipes = append(recipes, raw)
		outs = append(outs, out)
	}
	return lat, rate, recipes, outs
}

// verifyCoord compares coordinated outcomes with in-process Study.Run:
// the pinned digests for the default seed, then the first 24 studies.
func verifyCoord(seed int64, recipes, outs [][]byte, r *report) {
	for i, ref := range referenceDigests("coord-chunks", seed) {
		if i < len(outs) {
			r.check(ref.match("coord-chunks", i, digest(outs[i])))
		}
	}
	for i := 0; i < len(outs) && i < 24; i++ {
		_, _, js, err := runStudy(recipes[i])
		r.check(err)
		r.check(agree("coord-chunks", i, "coordinated outcome vs Study.Run", err == nil && string(js) != string(outs[i])))
	}
}

// coordSetup starts the listener and runs the warm-up study through it.
func coordSetup(o opts) (*coordEnv, error) {
	env, err := startCoord(o.scratch)
	if err != nil {
		return nil, err
	}
	if _, err := env.runCoordStudy(nil, -1, warmRecipe, nil); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// coordE2E measures coord-chunks: study-short's recipes, coordinated.
func coordE2E(o opts, r *report) {
	setup := setupTimes(o, setupRepeats/2)
	env, err := coordSetup(o)
	if err != nil {
		fatal(fmt.Errorf("set-up: %w", err))
	}
	defer env.close()

	src := newRecipeSource(o.seed, shortRecipe)
	before := readRuntime()
	lat, rate, recipes, outs := coordLoop(env, src, o.seconds, nil, nil, r)
	after := readRuntime()
	r.set("setup_s", median(append(setup, setupTimes(o, setupRepeats/2)...)))
	r.set("sim_s_per_s", median(rate))
	r.set("op_p50_ms", median(lat))
	r.set("alloc_kb_per_op", float64(after.allocBytes-before.allocBytes)/1024/float64(len(lat)))
	verifyCoord(o.seed, recipes, outs, r)
}

// coordTraced is coord-chunks' traced pass: half the budget untraced
// (the overhead reference and GC share), half traced with the timing
// RoundTripper in every worker.
func coordTraced(o opts, r *report, seconds float64) map[string]float64 {
	env, err := coordSetup(o)
	if err != nil {
		fatal(fmt.Errorf("coord warm-up: %w", err))
	}
	defer env.close()
	src := newRecipeSource(o.seed, shortRecipe)
	before := readRuntime()
	latA, _, recipes, outs := coordLoop(env, src, seconds/2, nil, nil, r)
	gc := gcShare(before, readRuntime())

	tr := newTracer()
	cs := &coordStats{lastLease: map[string]time.Time{}}
	latB, _, recipesB, outsB := coordLoop(env, src, seconds/2, tr, cs, r)
	verifyCoord(o.seed, append(recipes, recipesB...), append(outs, outsB...), r)
	r.spans["coord-chunks"] = tr.snapshot()
	p := newProfile(r.spans["coord-chunks"])
	meanNs := func(xs []int64) float64 {
		var s int64
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	return map[string]float64{
		"studycli.build_us":             p.meanSelfUs("studycli.build"),
		"coord.lease_us":                meanNs(cs.leaseNs) / 1e3,
		"coord.submit_us":               meanNs(cs.submitNs) / 1e3,
		"coord.idle_share":              1 - float64(cs.busyNs)/float64(int64(cs.workers)*cs.wallNs),
		"coord.attempts_per_chunk":      float64(cs.submits) / float64(cs.chunks),
		"coord.journal_bytes_per_chunk": float64(cs.journalBytes) / float64(cs.chunks),
		"runtime.gc_cpu_share":          gc,
		"trace.overhead_share":          (median(latB) - median(latA)) / median(latA),
		"trace.coverage":                p.coverage(),
	}
}

// coordSetupOnly is coord-chunks' set-up alone.
func coordSetupOnly(o opts) error {
	_, err := coordSetup(o)
	return err
}
