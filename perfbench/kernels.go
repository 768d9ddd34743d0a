package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/geometry"
	"repro/internal/hull"
	"repro/internal/lp"
	"repro/internal/safearea"
	"repro/internal/tverberg"
)

// The kernel layers (safearea, tverberg, hull, lp) are measured by
// replaying them offline on Γ-sized multisets the workload itself
// produced: each multiset has the workload's k, d and f. The (f+1)-way
// partition the hull and lp kernels take is the round-robin one (member i
// in block i mod (f+1)), one probe of the partition scan.

// kernel is one replayed call on a prepared multiset.
type kernel struct {
	name string
	// prepare builds the call's arguments outside the timed region and
	// returns the call.
	prepare func(set []geometry.Vector, f int) (func() error, error)
}

var kernels = []kernel{
	{"safearea.point_us_lift", func(set []geometry.Vector, f int) (func() error, error) {
		y, err := geometry.MultisetOf(set...)
		return func() error { _, err := safearea.PointWith(y, f, safearea.MethodTverbergLift); return err }, err
	}},
	{"safearea.point_us_lexmin", func(set []geometry.Vector, f int) (func() error, error) {
		y, err := geometry.MultisetOf(set...)
		return func() error { _, err := safearea.PointWith(y, f, safearea.MethodLexMinLP); return err }, err
	}},
	{"tverberg.lift_us", func(set []geometry.Vector, f int) (func() error, error) {
		y, err := geometry.MultisetOf(set...)
		return func() error {
			// A stalled lift is an outcome safearea falls back from (to
			// the partition scan), not a failure.
			_, _ = tverberg.Lift(y, f+1)
			return nil
		}, err
	}},
	{"hull.intersection_us", func(set []geometry.Vector, f int) (func() error, error) {
		groups := partition(set, f+1)
		return func() error { _, err := hull.IntersectionEmpty(groups); return err }, nil
	}},
	{"hull.lexmin_us", func(set []geometry.Vector, f int) (func() error, error) {
		groups := partition(set, f+1)
		return func() error { _, _, err := hull.LexMinCommonPoint(groups); return err }, nil
	}},
	{"lp.build_us", func(set []geometry.Vector, f int) (func() error, error) {
		groups := partition(set, f+1)
		return func() error { _, err := intersectionLP(groups); return err }, nil
	}},
	{"lp.solve_us.revised", solveWith(lp.CoreRevised)},
	{"lp.solve_us.dense", solveWith(lp.CoreDense)},
}

// solveWith times Solve on the partition's intersection LP with the given
// simplex core selected; the previous core is restored after the call.
func solveWith(c lp.Core) func(set []geometry.Vector, f int) (func() error, error) {
	return func(set []geometry.Vector, f int) (func() error, error) {
		prob, err := intersectionLP(partition(set, f+1))
		if err != nil {
			return nil, err
		}
		return func() error {
			prev := lp.SetCore(c)
			defer lp.SetCore(prev)
			_, err := prob.Solve()
			return err
		}, nil
	}
}

// replayKernels times every kernel on the samples and returns each
// kernel's mean call time in µs. The mean weighs every sample equally, so
// the rare expensive multisets (early, well-spread rounds) count as often
// as the workload produces them. Each kernel takes the samples in order
// while its share of budget lasts (at least minKernelCalls of them) and
// repeats whole passes if it finishes one early. A kernel error in the
// first pass is a failed operation.
func replayKernels(samples [][]geometry.Vector, f int, budget time.Duration, t *tally) map[string]float64 {
	out := make(map[string]float64, len(kernels))
	share := budget / time.Duration(len(kernels))
	for _, k := range kernels {
		calls := make([]func() error, 0, len(samples))
		for i, set := range samples {
			call, err := k.prepare(set, f)
			if err != nil {
				t.record(fmt.Errorf("%s replay on sample %d: %w", k.name, i, err))
				continue
			}
			calls = append(calls, call)
		}
		var total time.Duration
		n := 0
		start := time.Now()
	passes:
		for pass := 0; len(calls) > 0 && pass < 100; pass++ {
			for i, call := range calls {
				if n >= minKernelCalls && time.Since(start) > share {
					break passes
				}
				t0 := time.Now()
				err := call()
				total += time.Since(t0)
				n++
				if pass == 0 {
					if err != nil {
						err = fmt.Errorf("%s replay on sample %d: %w", k.name, i, err)
					}
					t.record(err)
				}
			}
		}
		out[k.name] = perOp(us(total), n)
	}
	return out
}

// minKernelCalls is the fewest calls a kernel's mean is taken over.
const minKernelCalls = 3

// partition splits set round-robin into parts blocks.
func partition(set []geometry.Vector, parts int) [][]geometry.Vector {
	groups := make([][]geometry.Vector, parts)
	for i, p := range set {
		groups[i%parts] = append(groups[i%parts], p)
	}
	return groups
}

// intersectionLP builds, with lp.NewProblem, the feasibility LP of
// ∩ conv(groups[g]) the hull package solves: free z ∈ R^d and, per group,
// convex weights over its distinct points whose combination equals z.
func intersectionLP(groups [][]geometry.Vector) (*lp.Problem, error) {
	d := groups[0][0].Dim()
	prob := lp.NewProblem()
	z := make([]lp.VarID, d)
	for l := range z {
		v, err := prob.AddVar("z", math.Inf(-1), math.Inf(1))
		if err != nil {
			return nil, err
		}
		z[l] = v
	}
	for _, pts := range groups {
		pts = distinct(pts)
		alphas := make([]lp.Term, len(pts))
		for i := range pts {
			v, err := prob.AddVar("a", 0, math.Inf(1))
			if err != nil {
				return nil, err
			}
			alphas[i] = lp.Term{Var: v, Coeff: 1}
		}
		if err := prob.AddConstraint("sum", alphas, lp.EQ, 1); err != nil {
			return nil, err
		}
		for l := 0; l < d; l++ {
			terms := make([]lp.Term, 0, len(pts)+1)
			for i, a := range alphas {
				if pts[i][l] != 0 {
					terms = append(terms, lp.Term{Var: a.Var, Coeff: pts[i][l]})
				}
			}
			terms = append(terms, lp.Term{Var: z[l], Coeff: -1})
			if err := prob.AddConstraint("eq", terms, lp.EQ, 0); err != nil {
				return nil, err
			}
		}
	}
	return prob, nil
}

// distinct keeps the first occurrence of each distinct point, as the hull
// package does before building its LP.
func distinct(pts []geometry.Vector) []geometry.Vector {
	var out []geometry.Vector
	for _, p := range pts {
		dup := false
		for _, q := range out {
			dup = dup || p.Equal(q)
		}
		if !dup {
			out = append(out, p)
		}
	}
	return out
}
