package soc

import "fmt"

// PerfModel computes workload throughput at an OPP. Throughput combines a
// per-cluster effective IPC (instructions per cycle, folded with memory
// stalls so the numbers are lower than architectural peak) with an
// Amdahl-style parallel-efficiency correction:
//
//	IPS(o) = (ipcL·nL + ipcB·nB) · f · E(nL+nB)
//
// where E(n) is the fraction of ideal n-way speedup retained, calibrated
// so the FPS-vs-power surface matches the paper's Fig. 7 (smallpt ray
// tracing at 5 samples/pixel).
type PerfModel struct {
	// IPCLittle and IPCBig are effective instructions/cycle per core.
	IPCLittle, IPCBig float64
	// ParallelFraction is the Amdahl parallel fraction of the workload
	// (ray tracing is embarrassingly parallel, ≈0.97).
	ParallelFraction float64
	// InstructionsPerFrame converts instruction throughput into rendered
	// frames (smallpt at the paper's quality setting).
	InstructionsPerFrame float64
}

// DefaultPerfModel returns coefficients calibrated to the paper's Fig. 7
// and Table II: ≈0.25 FPS at the maximal OPP, ≈0.065 FPS with 4×A7, and
// instruction totals in the few-thousand-billions per hour range.
func DefaultPerfModel() *PerfModel {
	return &PerfModel{
		IPCLittle:            0.35,
		IPCBig:               0.60,
		ParallelFraction:     0.97,
		InstructionsPerFrame: 2.2e10,
	}
}

// Validate checks the plausibility of the coefficients.
func (p *PerfModel) Validate() error {
	if p.IPCLittle <= 0 || p.IPCBig <= 0 {
		return fmt.Errorf("soc: IPC coefficients must be positive")
	}
	if p.ParallelFraction < 0 || p.ParallelFraction > 1 {
		return fmt.Errorf("soc: parallel fraction %g outside [0,1]", p.ParallelFraction)
	}
	if p.InstructionsPerFrame <= 0 {
		return fmt.Errorf("soc: InstructionsPerFrame must be positive")
	}
	return nil
}

// amdahlEfficiency returns the fraction of ideal n-way speedup retained at
// n cores for the configured parallel fraction.
func (p *PerfModel) amdahlEfficiency(n int) float64 {
	if n <= 1 {
		return 1
	}
	speedup := 1 / ((1 - p.ParallelFraction) + p.ParallelFraction/float64(n))
	return speedup / float64(n)
}

// InstructionsPerSecond returns sustained instruction throughput at OPP o
// under a CPU-saturating workload.
func (p *PerfModel) InstructionsPerSecond(o OPP) float64 {
	o = o.Clamp()
	f := o.Frequency()
	raw := (p.IPCLittle*float64(o.Config.Little) + p.IPCBig*float64(o.Config.Big)) * f
	return raw * p.amdahlEfficiency(o.Config.TotalCores())
}

// FramesPerSecond returns ray-tracing throughput at OPP o — the metric of
// the paper's Fig. 7.
func (p *PerfModel) FramesPerSecond(o OPP) float64 {
	return p.InstructionsPerSecond(o) / p.InstructionsPerFrame
}
