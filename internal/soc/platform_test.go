package soc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPlatformBoot(t *testing.T) {
	p := NewDefaultPlatform()
	if !p.Alive() {
		t.Fatal("platform not alive after construction")
	}
	if p.cur != MinOPP() || p.CommittedOPP() != MinOPP() {
		t.Error("platform should boot at the minimal OPP")
	}
	if inTransition(p) {
		t.Error("fresh platform should be idle")
	}
}

func TestNewPlatformValidation(t *testing.T) {
	if _, err := NewPlatform(nil, DefaultPerfModel(), DefaultLatencyModel()); err == nil {
		t.Error("nil power model accepted")
	}
	badPerf := DefaultPerfModel()
	badPerf.IPCBig = -1
	if _, err := NewPlatform(DefaultPowerModel(), badPerf, DefaultLatencyModel()); err == nil {
		t.Error("invalid perf model accepted")
	}
}

func TestAdvanceAccruesInstructions(t *testing.T) {
	p := NewDefaultPlatform()
	p.Reset(0, MinOPP())
	if err := p.Advance(10); err != nil {
		t.Fatal(err)
	}
	want := p.Perf.InstructionsPerSecond(MinOPP()) * 10
	if got := p.Instructions(); math.Abs(got-want) > 1e-3*want {
		t.Errorf("instructions = %g, want %g", got, want)
	}
	if p.Frames() <= 0 {
		t.Error("no frames accrued")
	}
	// Time cannot go backwards.
	if err := p.Advance(5); err == nil {
		t.Error("backwards Advance accepted")
	}
}

func TestUtilisationScalesAccrual(t *testing.T) {
	p := NewDefaultPlatform()
	p.Reset(0, MinOPP())
	p.SetUtilisation(0.5)
	if err := p.Advance(10); err != nil {
		t.Fatal(err)
	}
	want := p.Perf.InstructionsPerSecond(MinOPP()) * 10 * 0.5
	if got := p.Instructions(); math.Abs(got-want) > 1e-3*want {
		t.Errorf("instructions = %g, want %g", got, want)
	}
	p.SetUtilisation(7)
	if p.Utilisation() != 1 {
		t.Error("utilisation not clamped")
	}
}

func TestRequestOPPSingleStep(t *testing.T) {
	p := NewDefaultPlatform()
	p.Reset(0, MinOPP())
	target := OPP{FreqIdx: 1, Config: CoreConfig{Little: 1}}
	done, err := p.RequestOPP(target, 0, CoreFirst)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatal("zero-latency transition")
	}
	if p.CommittedOPP() != target {
		t.Error("committed OPP not updated")
	}
	if p.cur != MinOPP() {
		t.Error("effective OPP changed before completion")
	}
	if !inTransition(p) {
		t.Error("platform should be mid-transition")
	}
	if q := p.pending(); len(q) != 1 || q[0].from.Config != q[0].to.Config {
		t.Errorf("queued %d steps, want one DVFS step", len(q))
	}
	if err := p.Advance(done); err != nil {
		t.Fatal(err)
	}
	if p.cur != target {
		t.Error("effective OPP not updated after completion")
	}
	if inTransition(p) {
		t.Error("transition should be complete")
	}
}

// inTransition reports whether an OPP change is in flight at the
// platform's current time.
func inTransition(p *Platform) bool {
	q := p.pending()
	return len(q) > 0 && p.now >= q[0].start
}

func TestNoWorkDuringTransition(t *testing.T) {
	p := NewDefaultPlatform()
	p.Reset(0, MinOPP())
	done, err := p.RequestOPP(OPP{FreqIdx: 0, Config: CoreConfig{Little: 2}}, 0, CoreFirst)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Advance(done / 2); err != nil {
		t.Fatal(err)
	}
	if p.Instructions() != 0 {
		t.Errorf("instructions %g accrued mid-hot-plug", p.Instructions())
	}
	if err := p.Advance(done + 1); err != nil {
		t.Fatal(err)
	}
	if p.Instructions() <= 0 {
		t.Error("no instructions after completion")
	}
}

func TestPowerDrawDuringDownTransitionIsOld(t *testing.T) {
	p := NewDefaultPlatform()
	p.Reset(0, MaxOPP())
	before := p.PowerDraw()
	_, err := p.RequestOPP(OPP{FreqIdx: NumFrequencyLevels - 1, Config: CoreConfig{Little: 4, Big: 3}}, 0, CoreFirst)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.PowerDraw(); got != before {
		t.Errorf("power during shed = %g, want pre-transition %g", got, before)
	}
}

func TestPowerDrawDuringUpTransitionIsNew(t *testing.T) {
	p := NewDefaultPlatform()
	p.Reset(0, MinOPP())
	target := OPP{FreqIdx: 0, Config: CoreConfig{Little: 2}}
	_, err := p.RequestOPP(target, 0, CoreFirst)
	if err != nil {
		t.Fatal(err)
	}
	want := p.Power.PowerAtFullLoad(target)
	if got := p.PowerDraw(); got != want {
		t.Errorf("power during grow = %g, want target %g", got, want)
	}
}

func TestKillDropsLoad(t *testing.T) {
	p := NewDefaultPlatform()
	p.Reset(0, MaxOPP())
	p.Kill()
	if p.Alive() {
		t.Fatal("alive after Kill")
	}
	if p.PowerDraw() != 0 {
		t.Error("dead board still draws power")
	}
	if _, err := p.RequestOPP(MinOPP(), 1, CoreFirst); err == nil {
		t.Error("dead board accepted OPP request")
	}
}

func TestCurrentDrawUVLO(t *testing.T) {
	p := NewDefaultPlatform()
	p.Reset(0, MaxOPP())
	// Above UVLO: constant power.
	i5 := SupplyCurrent(p.PowerDraw(), 5)
	if math.Abs(i5-p.PowerDraw()/5) > 1e-12 {
		t.Error("constant-power draw wrong")
	}
	// Below UVLO the draw must collapse, not explode.
	i001 := SupplyCurrent(p.PowerDraw(), 0.01)
	if i001 > i5 {
		t.Errorf("draw at 10 mV (%g A) exceeds draw at 5 V (%g A)", i001, i5)
	}
	if SupplyCurrent(p.PowerDraw(), 0) != 0 {
		t.Error("zero voltage should draw nothing")
	}
}

func TestQueuedTransitionsSequence(t *testing.T) {
	p := NewDefaultPlatform()
	p.Reset(0, MinOPP())
	d1, err := p.RequestOPP(OPP{FreqIdx: 1, Config: CoreConfig{Little: 1}}, 0, CoreFirst)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := p.RequestOPP(OPP{FreqIdx: 2, Config: CoreConfig{Little: 1}}, 0, CoreFirst)
	if err != nil {
		t.Fatal(err)
	}
	if d2 <= d1 {
		t.Errorf("second request completes at %g, not after first %g", d2, d1)
	}
	if end, ok := p.TransitionEnd(); !ok || end != d2 {
		t.Errorf("TransitionEnd = %g, want %g", end, d2)
	}
	if next, ok := p.NextCompletion(); !ok || next != d1 {
		t.Errorf("NextCompletion = %g, want %g", next, d1)
	}
}

func TestRequestCommittedOPPNoop(t *testing.T) {
	p := NewDefaultPlatform()
	p.Reset(0, MinOPP())
	done, err := p.RequestOPP(MinOPP(), 3, CoreFirst)
	if err != nil || done != 3 {
		t.Errorf("no-op request: done=%g err=%v", done, err)
	}
	if len(p.pending()) != 0 {
		t.Error("no-op request queued steps")
	}
}

func TestPlanStepsProperties(t *testing.T) {
	// Property: for random OPP pairs and both orders, the plan reaches
	// the target through single-unit valid steps.
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		from := OPP{FreqIdx: rng.Intn(8), Config: CoreConfig{Little: 1 + rng.Intn(4), Big: rng.Intn(5)}}
		to := OPP{FreqIdx: rng.Intn(8), Config: CoreConfig{Little: 1 + rng.Intn(4), Big: rng.Intn(5)}}
		order := TransitionOrder(rng.Intn(2))
		steps, err := planSteps(nil, from, to, order)
		if err != nil {
			t.Fatalf("planSteps(%v, %v, %v): %v", from, to, order, err)
		}
		cur := from
		for i, s := range steps {
			if s.from != cur {
				t.Fatalf("step %d: from %v, want %v", i, s.from, cur)
			}
			df := s.to.FreqIdx - s.from.FreqIdx
			dl := s.to.Config.Little - s.from.Config.Little
			db := s.to.Config.Big - s.from.Config.Big
			units := abs(df) + abs(dl) + abs(db)
			if units != 1 {
				t.Fatalf("step %d changes %d units", i, units)
			}
			if s.isHotplug != (df == 0) {
				t.Fatalf("step %d: hot-plug flag wrong", i)
			}
			if !s.to.Valid() {
				t.Fatalf("step %d leaves envelope: %v", i, s.to)
			}
			cur = s.to
		}
		if cur != to {
			t.Fatalf("plan ends at %v, want %v", cur, to)
		}
	}
}

func TestCoreFirstShedsBigFirst(t *testing.T) {
	steps, err := planSteps(nil, MaxOPP(), MinOPP(), CoreFirst)
	if err != nil {
		t.Fatal(err)
	}
	// The first step must be a big-core removal at full frequency.
	if !steps[0].isHotplug || steps[0].to.Config.Big != 3 || steps[0].from.FreqIdx != NumFrequencyLevels-1 {
		t.Errorf("first core-first step = %+v, want big removal at fmax", steps[0])
	}
	// Frequency steps come last.
	last := steps[len(steps)-1]
	if last.isHotplug {
		t.Error("core-first scale-down should end with frequency steps")
	}
}

func TestFreqFirstDropsFrequencyFirst(t *testing.T) {
	steps, err := planSteps(nil, MaxOPP(), MinOPP(), FreqFirst)
	if err != nil {
		t.Fatal(err)
	}
	if steps[0].isHotplug {
		t.Error("freq-first scale-down should start with a frequency step")
	}
	last := steps[len(steps)-1]
	if !last.isHotplug {
		t.Error("freq-first scale-down should end with hot-plug steps")
	}
}

func TestResetClearsState(t *testing.T) {
	p := NewDefaultPlatform()
	p.Reset(0, MaxOPP())
	if err := p.Advance(5); err != nil {
		t.Fatal(err)
	}
	p.Kill()
	p.Reset(100, MinOPP())
	if !p.Alive() || p.Instructions() != 0 || p.now != 100 {
		t.Error("Reset did not restore boot state")
	}
	if p.CommittedOPP() != MinOPP() {
		t.Error("Reset OPP wrong")
	}
}

func TestQuickRequestOPPCompletionMonotone(t *testing.T) {
	f := func(fi, l, b uint8) bool {
		p := NewDefaultPlatform()
		p.Reset(0, MinOPP())
		target := OPP{
			FreqIdx: int(fi % NumFrequencyLevels),
			Config:  CoreConfig{Little: 1 + int(l%4), Big: int(b % 5)},
		}
		done, err := p.RequestOPP(target, 0, CoreFirst)
		if err != nil {
			return false
		}
		if target == MinOPP() {
			return done == 0
		}
		return done > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTransitionOrderString(t *testing.T) {
	if CoreFirst.String() != "core-first" || FreqFirst.String() != "frequency-first" {
		t.Error("order strings wrong")
	}
	if TransitionOrder(9).String() == "" {
		t.Error("unknown order should still render")
	}
}

func TestQueueCompactionUnderBacklog(t *testing.T) {
	// Requests that always land while a transition is still pending must
	// not grow the queue's backing array with the total number of
	// requests ever made: the consumed prefix is compacted away on each
	// request. Semantics are pinned too — steps still complete in order.
	p := NewDefaultPlatform()
	p.Reset(0, MinOPP())
	now := 0.0
	for i := 0; i < 1000; i++ {
		target := OPP{FreqIdx: 1, Config: CoreConfig{Little: 1}}
		if p.CommittedOPP() == target {
			target = MinOPP()
		}
		end, err := p.RequestOPP(target, now, CoreFirst)
		if err != nil {
			t.Fatal(err)
		}
		// Advance only halfway to the completion: the queue never fully
		// drains, so the full-drain rewind alone would never fire.
		now += (end - now) / 2
		if err := p.Advance(now); err != nil {
			t.Fatal(err)
		}
	}
	if c := cap(p.queue); c > 64 {
		t.Errorf("queue backing array grew to %d entries under backlog; compaction failed", c)
	}
	// Let everything finish and confirm the committed point is reached.
	if end, ok := p.TransitionEnd(); ok {
		if err := p.Advance(end); err != nil {
			t.Fatal(err)
		}
	}
	if p.cur != p.CommittedOPP() {
		t.Error("queue did not settle to the committed OPP")
	}
}
