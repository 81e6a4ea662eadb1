package pv

import "math"

// LaneSolver advances the warm-started implicit-diode solves of several
// Solvers in lockstep: one SolveLanes call computes, for every lane j,
// exactly what solvers[j].CurrentAt(vs[j], gs[j]) would — the same
// Newton iterate sequence, the same warm-state commit, the same exact
// bracketed fallback on hostile inputs — so per-lane results (and all
// subsequent warm-started solves on those Solvers) are bit-identical to
// sequential scalar solves. Only the cross-lane iteration order
// changes: every lane still running performs one Newton update per
// lockstep sweep, which keeps the per-lane model parameters hot and
// replaces W call/returns per operating point with one.
//
// The batched simulation engine uses this to evaluate all stepping
// lanes' PV operating points per RK stage in a single call. Lane memo
// state is untouched: Voc/MPP memos (shared or private) belong to the
// individual Solvers and behave identically under lane or scalar
// solves.
//
// The zero value is ready to use; scratch is sized on first call. A
// LaneSolver is not safe for concurrent use.
type LaneSolver struct {
	il  []float64
	act []int
	fb  []int
}

// ensure sizes the per-lane scratch for n lanes, reusing capacity.
func (ls *LaneSolver) ensure(n int) {
	if cap(ls.il) < n {
		ls.il = make([]float64, n)
		ls.act = make([]int, 0, n)
		ls.fb = make([]int, 0, n)
	}
	ls.il = ls.il[:n]
}

// SolveLanes solves the implicit single-diode equation of every lane in
// lockstep: lane j computes the terminal current of solvers[j] at
// voltage vs[j] and irradiance gs[j], writing the root to out[j] and
// the solve error (nil on success) to errs[j]. All five slices must
// have equal length. Semantics per lane are identical to
// Solver.CurrentAt, including the warm-state update observed by later
// solves on that Solver; a Solver must not appear in more than one lane
// of a call (its warm state would be advanced twice against one
// history).
func (ls *LaneSolver) SolveLanes(solvers []*Solver, vs, gs, out []float64, errs []error) {
	n := len(solvers)
	ls.ensure(n)
	act := ls.act[:0]
	fb := ls.fb[:0]

	// Seed every lane exactly as the scalar solve does: photocurrent at
	// this irradiance, previous root plus the implicit-function-theorem
	// extrapolation when warm.
	for j := 0; j < n; j++ {
		s := solvers[j]
		il := s.a.LightCurrent(gs[j])
		i := il
		if s.warm {
			i = s.prevI
			if s.a.Rs > 0 && s.prevDf != 0 {
				i += -(s.prevDf+1)/(s.a.Rs*s.prevDf)*(vs[j]-s.prevV) - (il-s.prevIl)/s.prevDf
			}
		}
		ls.il[j] = il
		out[j] = i
		errs[j] = nil
		act = append(act, j)
	}

	// Lockstep Newton: every still-active lane performs one update per
	// sweep — the identical arithmetic, in the identical per-lane order,
	// as the scalar iteration. Lanes that converge commit their warm
	// state at that sweep and drop out; lanes whose update goes
	// non-finite drop to the exact fallback, as the scalar loop's break
	// does.
	for iter := 0; iter < 40 && len(act) > 0; iter++ {
		live := act[:0]
		for _, j := range act {
			s := solvers[j]
			v, i := vs[j], out[j]
			arg := (v + s.a.Rs*i) / s.vt
			if arg > 500 {
				arg = 500
			}
			em1 := expm1(arg)
			f := ls.il[j] - s.a.I0*em1 - (v+s.a.Rs*i)/s.a.Rp - i
			df := -s.a.I0*(em1+1)*s.a.Rs/s.vt - s.rsRp - 1
			next := i - f/df
			if math.IsNaN(next) || math.IsInf(next, 0) {
				fb = append(fb, j)
				continue
			}
			if math.Abs(next-i) < 1e-12*(1+math.Abs(i)) {
				s.prevI, s.prevV, s.prevIl, s.prevDf = next, v, ls.il[j], df
				s.warm = true
				out[j] = next
				continue
			}
			out[j] = next
			live = append(live, j)
		}
		act = live
	}
	// Lanes that exhausted the iteration budget fall back too, after the
	// non-finite lanes of earlier sweeps — lane order within one call
	// does not affect per-lane results (solvers are independent).
	fb = append(fb, act...)

	// Exact bracketed fallback, per lane, exactly as the scalar solve.
	for _, j := range fb {
		s := solvers[j]
		iex, err := s.a.CurrentAt(vs[j], gs[j])
		if err == nil {
			s.prevI, s.prevV, s.prevIl, s.prevDf = iex, vs[j], ls.il[j], 0
			s.warm = true
		}
		out[j], errs[j] = iex, err
	}
	ls.act, ls.fb = act[:0], fb[:0]
}
