// Package testutil holds the shared helpers behind the repo's
// golden-equality discipline: a refactor, migration or alternative
// engine is accepted only when its outcomes are bit-identical to the
// reference path. The scenario, experiments and study layers all pin
// that invariant; the assertion lived as hand-rolled field-by-field
// comparisons in each of them before being extracted here.
//
// The helpers use == throughout — never a tolerance — because the
// invariant under test is exact floating-point equality, not numerical
// closeness.
//
// (internal/sim's own tests cannot import this package — it imports sim
// — and keep their in-package comparisons instead.)
package testutil

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"testing"

	"pnps/internal/core"
	"pnps/internal/sim"
	"pnps/internal/trace"
)

// RequireEqual fails the test unless got == want, for any comparable
// summary/outcome struct (study summaries, sweep points, histograms
// bins). label names the comparison in the failure message.
func RequireEqual[T comparable](t testing.TB, label string, got, want T) {
	t.Helper()
	if got != want {
		t.Fatalf("%s diverged:\ngot  %+v\nwant %+v", label, got, want)
	}
}

// RequireEqualSeries fails the test unless the two series carry
// bit-identical (time, value) samples. Both nil passes (series capture
// off on both sides); one nil fails.
func RequireEqualSeries(t testing.TB, label string, got, want *trace.Series) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: one series is nil (got %v, want %v)", label, got != nil, want != nil)
	}
	if got == nil {
		return
	}
	gt, gv := got.Times(), got.Values()
	wt, wv := want.Times(), want.Values()
	if len(gt) != len(wt) {
		t.Fatalf("%s: series lengths differ: got %d, want %d", label, len(gt), len(wt))
	}
	for i := range gt {
		if gt[i] != wt[i] || gv[i] != wv[i] {
			t.Fatalf("%s: series diverge at sample %d: got (%g, %g), want (%g, %g)",
				label, i, gt[i], gv[i], wt[i], wv[i])
		}
	}
}

// resultScalars is the comparable snapshot of every scalar outcome a
// sim.Result carries; two results agree bit-identically iff their
// snapshots are == and their series pass RequireEqualSeries.
type resultScalars struct {
	Interrupts, Brownouts, Restarts, GovernorTicks int
	BrownedOut                                     bool
	FirstBrownout, Instructions, Frames            float64
	LifetimeSeconds, FinalVC                       float64
	StorageEnergyStartJ, StorageEnergyEndJ         float64
	TargetVolts, CPUOverhead, MonitorPowerWatts    float64
	Stats                                          core.Stats
	Env                                            sim.Envelope
}

func scalarsOf(r *sim.Result) resultScalars {
	return resultScalars{
		Interrupts:          r.Interrupts,
		Brownouts:           r.Brownouts,
		Restarts:            r.Restarts,
		GovernorTicks:       r.GovernorTicks,
		BrownedOut:          r.BrownedOut,
		FirstBrownout:       r.FirstBrownout,
		Instructions:        r.Instructions,
		Frames:              r.Frames,
		LifetimeSeconds:     r.LifetimeSeconds,
		FinalVC:             r.FinalVC,
		StorageEnergyStartJ: r.StorageEnergyStartJ,
		StorageEnergyEndJ:   r.StorageEnergyEndJ,
		TargetVolts:         r.TargetVolts,
		CPUOverhead:         r.CPUOverhead,
		MonitorPowerWatts:   r.MonitorPowerWatts,
		Stats:               r.ControllerStats,
		Env:                 r.VCEnvelope,
	}
}

// RequireEqualResults fails the test unless got and want are
// bit-identical: every scalar outcome, the controller stats, the supply
// envelope and every captured series. label names the comparison in
// failure messages.
func RequireEqualResults(t testing.TB, label string, got, want *sim.Result) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: one result is nil (got %v, want %v)", label, got != nil, want != nil)
	}
	if got == nil {
		return
	}
	RequireEqual(t, label+" scalars", scalarsOf(got), scalarsOf(want))
	RequireEqualSeries(t, label+" VC", got.VC, want.VC)
	RequireEqualSeries(t, label+" PowerConsumed", got.PowerConsumed, want.PowerConsumed)
	RequireEqualSeries(t, label+" PowerAvailable", got.PowerAvailable, want.PowerAvailable)
	RequireEqualSeries(t, label+" FreqGHz", got.FreqGHz, want.FreqGHz)
	RequireEqualSeries(t, label+" LittleCores", got.LittleCores, want.LittleCores)
	RequireEqualSeries(t, label+" BigCores", got.BigCores, want.BigCores)
	RequireEqualSeries(t, label+" TotalCores", got.TotalCores, want.TotalCores)
}

// ResultDigest returns the hex SHA-256 of a result's bit pattern: every
// resultScalars field (unexported envelope state included) and every
// sample of every series, each as 8 little-endian bytes — floats by
// their Float64bits. Equal digests mean bit-identical results, so a
// short table of digests can pin outcomes across commits.
func ResultDigest(r *sim.Result) string {
	h := sha256.New()
	digestValue(h, reflect.ValueOf(scalarsOf(r)))
	for _, s := range []*trace.Series{r.VC, r.PowerConsumed, r.PowerAvailable,
		r.FreqGHz, r.LittleCores, r.BigCores, r.TotalCores} {
		if s == nil {
			digestWord(h, math.MaxUint64)
			continue
		}
		digestWord(h, uint64(s.Len()))
		for i := 0; i < s.Len(); i++ {
			t, v := s.At(i)
			digestWord(h, math.Float64bits(t))
			digestWord(h, math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestValue feeds v's fields, depth first in declaration order, into h.
func digestValue(h hash.Hash, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			digestValue(h, v.Field(i))
		}
	case reflect.Float64:
		digestWord(h, math.Float64bits(v.Float()))
	case reflect.Int:
		digestWord(h, uint64(v.Int()))
	case reflect.Bool:
		var b uint64
		if v.Bool() {
			b = 1
		}
		digestWord(h, b)
	default:
		panic("testutil: ResultDigest cannot digest a " + v.Kind().String())
	}
}

func digestWord(h hash.Hash, w uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], w)
	h.Write(b[:])
}
