package scenario

import (
	"fmt"
	"testing"

	"pnps/internal/buffer"
	"pnps/internal/sim"
	"pnps/internal/soc"
	"pnps/internal/testutil"
)

// TestScenarioStorageMatrixRepeatable runs every registered scenario to
// completion under all three storage families and requires each run to
// be repeatable bit for bit: every scalar outcome, controller stat,
// envelope and captured series. Each cell runs its own seeds twice, the
// second pass in reverse order, so a repeat always follows a run of a
// different seed — state leaking between runs through the process-wide
// MPP memo or the pooled cloud generators would show as a divergence.
// CI runs this suite under -race.
func TestScenarioStorageMatrixRepeatable(t *testing.T) {
	seedsPerCell := 2
	if !testing.Short() {
		seedsPerCell = 4
	}
	storages := []struct {
		name string
		mk   func() sim.Storage
	}{
		{"idealcap", func() sim.Storage { return nil }}, // spec default: ideal 47 mF
		{"supercap", func() sim.Storage {
			return sim.NewSupercap(buffer.Supercap{
				Farads: 47e-3, ESROhms: 0.05, LeakOhms: 5000, VMax: soc.MaxOperatingVolts,
			})
		}},
		{"hybridcap", func() sim.Storage {
			return sim.HybridCap{NodeFarads: 10e-3, ReservoirFarads: 47e-3,
				DiodeDropVolts: 0.35, DiodeOhms: 0.2, ChargeOhms: 10, LeakOhms: 5000}
		}},
	}

	names := Names()
	if len(names) < 10 {
		t.Fatalf("registry has %d scenarios, want the 10 built-ins", len(names))
	}
	for si, name := range names {
		for sti, st := range storages {
			t.Run(fmt.Sprintf("%s/%s", name, st.name), func(t *testing.T) {
				spec := MustLookup(name)
				// Short spans keep the full matrix fast while leaving
				// enough time for interrupts, brownouts and governor
				// ticks to fire on the stressed scenarios.
				if spec.Duration > 6 {
					spec.Duration = 6
				}
				if s := st.mk(); s != nil {
					spec.Storage = s
				}

				seeds := make([]int64, seedsPerCell)
				first := make([]*sim.Result, seedsPerCell)
				for i := range seeds {
					seeds[i] = int64(1000*si + 100*sti + i)
					res, err := spec.Run(seeds[i])
					if err != nil {
						t.Fatalf("seed %d: %v", seeds[i], err)
					}
					first[i] = res
				}
				for i := len(seeds) - 1; i >= 0; i-- {
					res, err := spec.Run(seeds[i])
					if err != nil {
						t.Fatalf("seed %d repeat: %v", seeds[i], err)
					}
					testutil.RequireEqualResults(t, fmt.Sprintf("seed %d repeat", seeds[i]), res, first[i])
				}
			})
		}
	}
}
