package sim

import (
	"math"
	"testing"

	"pnps/internal/core"
	"pnps/internal/pv"
	"pnps/internal/soc"
)

// observerConfig assembles the standard one-minute power-neutral cloud
// run used across the observer tests.
func observerConfig(t testing.TB, dur float64) Config {
	t.Helper()
	plat := soc.NewDefaultPlatform()
	plat.Reset(0, soc.MinOPP())
	ctrl, err := core.New(core.DefaultParams(), 5.3, soc.MinOPP(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Array: pv.SouthamptonArray(), Profile: pv.NewClouds(pv.Constant(900), pv.PartialSun(dur), 42),
		Capacitance: 47e-3, InitialVC: 5.3, Platform: plat,
		Controller: ctrl, Duration: dur,
	}
}

// TestOnlineStabilityBitIdenticalToSeries: the online within-band
// accumulator must reproduce the series-based stability computation bit
// for bit — same sample stream, same summation order — so trace-free
// campaigns report exactly the number trace-retaining runs would.
func TestOnlineStabilityBitIdenticalToSeries(t *testing.T) {
	bands := []float64{0.05, 0.10}
	withSeries, err := Run(observerConfig(t, 60))
	if err != nil {
		t.Fatal(err)
	}
	cfg := observerConfig(t, 60)
	cfg.SkipSeries = true
	cfg.StabilityBands = bands
	traceFree, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pct := range bands {
		series := withSeries.StabilityWithin(pct)
		online := traceFree.StabilityWithin(pct)
		if series != online {
			t.Errorf("±%g%% stability: series %.17g vs online %.17g", pct*100, series, online)
		}
	}
	// The engine feeds both paths at once too: a trace-retaining run
	// with bands answers identically from either representation.
	cfg2 := observerConfig(t, 60)
	cfg2.StabilityBands = bands
	both, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := both.StabilityWithin(0.05), withSeries.StabilityWithin(0.05); got != want {
		t.Errorf("series+bands run diverged: %.17g vs %.17g", got, want)
	}
}

// TestVCEnvelopeBitIdenticalToSeries: the always-on envelope must match
// the VC trace's Min/Max/TimeMean exactly.
func TestVCEnvelopeBitIdenticalToSeries(t *testing.T) {
	res, err := Run(observerConfig(t, 60))
	if err != nil {
		t.Fatal(err)
	}
	minV, err := res.VC.Min()
	if err != nil {
		t.Fatal(err)
	}
	maxV, _ := res.VC.Max()
	tmean, err := res.VC.TimeMean()
	if err != nil {
		t.Fatal(err)
	}
	env := res.VCEnvelope
	if env.Min != minV || env.Max != maxV {
		t.Errorf("envelope extrema (%.17g, %.17g) vs series (%.17g, %.17g)", env.Min, env.Max, minV, maxV)
	}
	if env.TimeMean() != tmean {
		t.Errorf("envelope time-mean %.17g vs series %.17g", env.TimeMean(), tmean)
	}
	// Trace-free run: envelope unchanged without the series.
	cfg := observerConfig(t, 60)
	cfg.SkipSeries = true
	free, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if free.VCEnvelope != env {
		t.Errorf("trace-free envelope diverged: %+v vs %+v", free.VCEnvelope, env)
	}
}

// TestObserverEnvelopeMatchesSeriesChannels: generic channel envelopes
// reproduce the corresponding series analyses.
func TestObserverEnvelopeMatchesSeriesChannels(t *testing.T) {
	obs := map[Channel]*EnvelopeObserver{
		ChanVC:         {Channel: ChanVC},
		ChanPower:      {Channel: ChanPower},
		ChanFreqGHz:    {Channel: ChanFreqGHz},
		ChanTotalCores: {Channel: ChanTotalCores},
		ChanAvailPower: {Channel: ChanAvailPower},
	}
	cfg := observerConfig(t, 60)
	for _, o := range obs {
		cfg.Observers = append(cfg.Observers, o)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(ch Channel, s interface {
		Min() (float64, error)
		Max() (float64, error)
	}) {
		t.Helper()
		minV, err := s.Min()
		if err != nil {
			t.Fatal(err)
		}
		maxV, _ := s.Max()
		if env := obs[ch].Env; env.Min != minV || env.Max != maxV {
			t.Errorf("channel %d: envelope (%.17g, %.17g) vs series (%.17g, %.17g)",
				ch, env.Min, env.Max, minV, maxV)
		}
	}
	check(ChanVC, res.VC)
	check(ChanPower, res.PowerConsumed)
	check(ChanFreqGHz, res.FreqGHz)
	check(ChanTotalCores, res.TotalCores)
	check(ChanAvailPower, res.PowerAvailable)
	if n := obs[ChanAvailPower].Env.N; n != res.PowerAvailable.Len() {
		t.Errorf("avail-power observer saw %d samples, series has %d", n, res.PowerAvailable.Len())
	}
}

// TestTimeInStateObserver: the dwell-time histogram's total weight is
// the observed span, and its quantile estimate brackets the series'
// supply-voltage distribution.
func TestTimeInStateObserver(t *testing.T) {
	tis, err := NewTimeInStateObserver(ChanVC, 4.0, 6.0, 100)
	if err != nil {
		t.Fatal(err)
	}
	cfg := observerConfig(t, 60)
	cfg.Observers = []Observer{tis}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t0, _ := res.VC.First()
	t1, _ := res.VC.Last()
	span := t1 - t0
	if got := tis.Hist.Total(); math.Abs(got-span) > 1e-9 {
		t.Errorf("dwell total %.9f s, trace spans %.9f s", got, span)
	}
	med, err := tis.Hist.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	minV, _ := res.VC.Min()
	maxV, _ := res.VC.Max()
	if med < minV || med > maxV {
		t.Errorf("median dwell voltage %.3f outside observed range [%.3f, %.3f]", med, minV, maxV)
	}
}

// TestTraceFreeAvailPowerGating: trace-free runs skip the costly MPP
// available-power sampling unless an observer asks for it.
func TestTraceFreeAvailPowerGating(t *testing.T) {
	// An envelope over a non-avail channel must not trigger sampling...
	plain := &EnvelopeObserver{Channel: ChanVC}
	cfg := observerConfig(t, 20)
	cfg.SkipSeries = true
	cfg.Observers = []Observer{plain}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	// ...which is observable through a ChanAvailPower observer seeing
	// nothing when it is the gating one vs when paired with series.
	avail := &EnvelopeObserver{Channel: ChanAvailPower}
	cfg = observerConfig(t, 20)
	cfg.SkipSeries = true
	cfg.Observers = []Observer{avail}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if avail.Env.N == 0 {
		t.Error("ChanAvailPower observer should force available-power sampling trace-free")
	}
}

// probeObserver records whether any sample carried platform state; it
// declares SupplyOnly so it does not itself force the bookkeeping.
type probeObserver struct {
	samples      int
	sawPlatform  bool
	minVC, maxVC float64
}

func (p *probeObserver) Observe(s *Sample) {
	if p.samples == 0 {
		p.minVC, p.maxVC = s.VC, s.VC
	}
	if s.VC < p.minVC {
		p.minVC = s.VC
	}
	if s.VC > p.maxVC {
		p.maxVC = s.VC
	}
	if s.PowerW != 0 || s.FreqGHz != 0 || s.LittleCores != 0 || s.HasAvail {
		p.sawPlatform = true
	}
	p.samples++
}

func (*probeObserver) SupplyOnly() bool { return true }

// TestSupplyOnlyObserversSkipPlatformBookkeeping: when every attached
// observer is supply-only (the trace-free campaign configuration), the
// engine must not assemble the platform fields of the Sample — and a
// non-supply-only observer in the mix must bring them back.
func TestSupplyOnlyObserversSkipPlatformBookkeeping(t *testing.T) {
	probe := &probeObserver{}
	cfg := observerConfig(t, 20)
	cfg.SkipSeries = true
	cfg.Observers = []Observer{probe, &EnvelopeObserver{Channel: ChanVC}}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if probe.samples == 0 {
		t.Fatal("probe saw no samples")
	}
	if probe.sawPlatform {
		t.Error("supply-only run still assembled platform state")
	}
	if probe.minVC == probe.maxVC {
		t.Error("probe saw a constant supply voltage — VC not populated?")
	}

	probe2 := &probeObserver{}
	cfg = observerConfig(t, 20)
	cfg.SkipSeries = true
	cfg.Observers = []Observer{probe2, &EnvelopeObserver{Channel: ChanPower}}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if !probe2.sawPlatform {
		t.Error("a power observer should force platform state into the samples")
	}
}

// TestStabilityBandValidation: non-positive and non-finite bands are
// rejected.
func TestStabilityBandValidation(t *testing.T) {
	for _, pct := range []float64{-0.1, 0, math.NaN(), math.Inf(1)} {
		cfg := observerConfig(t, 1)
		cfg.StabilityBands = []float64{0.05, pct}
		if _, err := Run(cfg); err == nil {
			t.Errorf("stability band %g accepted", pct)
		}
	}
}

// TestZeroSteadyStateAllocs pins the headline perf property: the
// trace-free hot path allocates only a fixed per-run amount — zero
// steady-state allocations per simulated second. It runs the same
// cloud-stressed power-neutral scenario at two durations; any per-step,
// per-interrupt or per-transition allocation left in the engine, the
// platform bookkeeping or the controller would make the longer run
// allocate more. (CI runs this as the alloc-regression gate; the
// BenchmarkStorageDispatch numbers track the absolute figures.)
func TestZeroSteadyStateAllocs(t *testing.T) {
	profile := pv.NewClouds(pv.Constant(900), pv.PartialSun(120), 42)
	run := func(dur float64) float64 {
		return testing.AllocsPerRun(5, func() {
			plat := soc.NewDefaultPlatform()
			plat.Reset(0, soc.MinOPP())
			ctrl, err := core.New(core.DefaultParams(), 5.3, soc.MinOPP(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(Config{
				Array: pv.SouthamptonArray(), Profile: profile,
				Capacitance: 47e-3, InitialVC: 5.3, Platform: plat,
				Controller: ctrl, Duration: dur, SkipSeries: true,
				StabilityBands: []float64{0.05},
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := run(30), run(120)
	if long > short {
		t.Errorf("steady-state allocations: 30 s run costs %.0f allocs, 120 s costs %.0f — %+.2f allocs per extra simulated second, want 0",
			short, long, (long-short)/90)
	}
}
