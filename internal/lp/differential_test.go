package lp

import (
	"math"
	"math/rand"
	"testing"
)

// This file is the differential suite between the two simplex cores: every
// random program is solved under both CoreDense and CoreRevised and the
// verdicts must agree (objectives within tolerance; solutions feasible).
// CI additionally runs the whole package suite under REPRO_LP_CORE=dense,
// so the dense core keeps passing the direct property tests too.

// withCore runs fn under the given core selection.
func withCore(c Core, fn func()) {
	prev := SetCore(c)
	defer SetCore(prev)
	fn()
}

// randomLP builds a random bounded-box LP with a mix of LE/GE/EQ rows. It
// is feasible by construction: the rows are anchored at a random interior
// point xfeas of the box.
func randomLP(rng *rand.Rand) (*Problem, []VarID, []float64) {
	nvars := 2 + rng.Intn(4)
	nrows := 1 + rng.Intn(5)
	p := NewProblem()
	vars := make([]VarID, nvars)
	xfeas := make([]float64, nvars)
	for i := range vars {
		lo, hi := 0.0, 4.0
		switch rng.Intn(4) {
		case 1:
			lo, hi = -2, 2
		case 2:
			lo, hi = -3, math.Inf(1)
		case 3:
			lo, hi = math.Inf(-1), 3
		}
		v, err := p.AddVar("x", lo, hi)
		if err != nil {
			panic(err)
		}
		vars[i] = v
		base := lo
		if math.IsInf(lo, -1) {
			base = hi - 2
		}
		span := 2.0
		if !math.IsInf(hi, 1) && !math.IsInf(lo, -1) {
			span = hi - lo
		}
		xfeas[i] = base + rng.Float64()*span
	}
	for r := 0; r < nrows; r++ {
		terms := make([]Term, 0, nvars)
		var at float64
		for i, v := range vars {
			a := rng.Float64()*4 - 2
			if rng.Intn(3) == 0 {
				a = 0
			}
			if a != 0 {
				terms = append(terms, Term{Var: v, Coeff: a})
				at += a * xfeas[i]
			}
		}
		var rel Rel
		rhs := at
		switch rng.Intn(3) {
		case 0:
			rel = LE
			rhs += rng.Float64()
		case 1:
			rel = GE
			rhs -= rng.Float64()
		default:
			rel = EQ
		}
		if err := p.AddConstraint("r", terms, rel, rhs); err != nil {
			panic(err)
		}
	}
	costs := make([]Term, nvars)
	for i, v := range vars {
		costs[i] = Term{Var: v, Coeff: rng.Float64()*2 - 1}
	}
	sense := Minimize
	if rng.Intn(2) == 1 {
		sense = Maximize
	}
	if err := p.SetObjective(sense, costs); err != nil {
		panic(err)
	}
	return p, vars, xfeas
}

// checkFeasible verifies the solution against every constraint and bound.
func checkFeasible(t *testing.T, trial int, core Core, p *Problem, sol *Solution) {
	t.Helper()
	for i := range p.varLo {
		v := sol.Values[i]
		if v < p.varLo[i]-1e-6 || v > p.varHi[i]+1e-6 {
			t.Fatalf("trial %d core %v: x%d = %g violates bounds [%g, %g]",
				trial, core, i, v, p.varLo[i], p.varHi[i])
		}
	}
	for r := range p.rows {
		var lhs float64
		for _, tm := range p.rows[r] {
			lhs += tm.Coeff * sol.Values[tm.Var]
		}
		rhs := p.rhs[r]
		switch p.rels[r] {
		case LE:
			if lhs > rhs+1e-6 {
				t.Fatalf("trial %d core %v: row %d %g > %g", trial, core, r, lhs, rhs)
			}
		case GE:
			if lhs < rhs-1e-6 {
				t.Fatalf("trial %d core %v: row %d %g < %g", trial, core, r, lhs, rhs)
			}
		case EQ:
			if math.Abs(lhs-rhs) > 1e-6 {
				t.Fatalf("trial %d core %v: row %d %g != %g", trial, core, r, lhs, rhs)
			}
		}
	}
}

// TestCoresAgreeOnRandomLPs: both cores must produce the same status and —
// when Optimal — the same objective within tolerance, each with a feasible
// solution. (The optimal VERTICES may differ on degenerate faces; the
// objective value and verdict are the invariants.)
func TestCoresAgreeOnRandomLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 300; trial++ {
		p, _, _ := randomLP(rng)
		var dsol, rsol *Solution
		var derr, rerr error
		withCore(CoreDense, func() { dsol, derr = p.Solve() })
		withCore(CoreRevised, func() { rsol, rerr = p.Solve() })
		if (derr == nil) != (rerr == nil) {
			t.Fatalf("trial %d: error mismatch dense=%v revised=%v", trial, derr, rerr)
		}
		if derr != nil {
			continue
		}
		if dsol.Status != rsol.Status {
			t.Fatalf("trial %d: status dense=%v revised=%v", trial, dsol.Status, rsol.Status)
		}
		if dsol.Status != Optimal {
			continue
		}
		if math.Abs(dsol.Objective-rsol.Objective) > 1e-5 {
			t.Fatalf("trial %d: objective dense=%g revised=%g", trial, dsol.Objective, rsol.Objective)
		}
		checkFeasible(t, trial, CoreDense, p, dsol)
		checkFeasible(t, trial, CoreRevised, p, rsol)
	}
}

// TestCoresAgreeOnInfeasible: infeasibility verdicts must agree.
func TestCoresAgreeOnInfeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		p := NewProblem()
		x, _ := p.AddVar("x", 0, 10)
		y, _ := p.AddVar("y", 0, 10)
		gap := rng.Float64() * 5
		_ = p.AddConstraint("a", []Term{{x, 1}, {y, 1}}, GE, 15+gap)
		_ = p.AddConstraint("b", []Term{{x, 1}, {y, 1}}, LE, 15-gap-0.1)
		var ds, rs Status
		withCore(CoreDense, func() { s, err := p.Solve(); mustNoErr(t, err); ds = s.Status })
		withCore(CoreRevised, func() { s, err := p.Solve(); mustNoErr(t, err); rs = s.Status })
		if ds != rs || rs != Infeasible {
			t.Fatalf("trial %d: dense=%v revised=%v want Infeasible", trial, ds, rs)
		}
	}
}

// TestCoresAgreeOnUnbounded: unboundedness verdicts must agree.
func TestCoresAgreeOnUnbounded(t *testing.T) {
	p := NewProblem()
	x, _ := p.AddVar("x", 0, math.Inf(1))
	y, _ := p.AddVar("y", 0, math.Inf(1))
	_ = p.AddConstraint("a", []Term{{x, 1}, {y, -1}}, LE, 1)
	_ = p.SetObjective(Maximize, []Term{{x, 1}})
	for _, core := range []Core{CoreDense, CoreRevised} {
		withCore(core, func() {
			s, err := p.Solve()
			mustNoErr(t, err)
			if s.Status != Unbounded {
				t.Fatalf("core %v: status %v, want Unbounded", core, s.Status)
			}
		})
	}
}

// TestRevisedHotLongChain pushes a Hot handle through enough appends and
// re-solves to cross the refactorization cadence, checking every stage
// against a cold solve of the cumulative program — the eta-file and
// bordered-row operators must compose across refactorizations. The root
// program has more than smallCoreRows rows so the handle runs on the
// revised core, not the small-program tableau kernel.
func TestRevisedHotLongChain(t *testing.T) {
	withCore(CoreRevised, func() {
		rng := rand.New(rand.NewSource(57))
		for trial := 0; trial < 10; trial++ {
			const nv, nbase = 6, smallCoreRows
			// terms is Σ coeffᵢ·varsᵢ without the zero coefficients.
			terms := func(vars []VarID, coeff []float64) []Term {
				ts := make([]Term, 0, nv)
				for i, a := range coeff {
					if a != 0 {
						ts = append(ts, Term{Var: vars[i], Coeff: a})
					}
				}
				return ts
			}
			addRow := func(p *Problem, vars []VarID, coeff []float64, rel Rel, rhs float64) {
				if err := p.AddConstraint("r", terms(vars, coeff), rel, rhs); err != nil {
					t.Fatal(err)
				}
			}
			setObj := func(p *Problem, vars []VarID, coeff []float64) {
				if err := p.SetObjective(Minimize, terms(vars, coeff)); err != nil {
					t.Fatal(err)
				}
			}
			p, cold := NewProblem(), NewProblem()
			vars, cvars := make([]VarID, nv), make([]VarID, nv)
			for i := range vars {
				vars[i], _ = p.AddVar("x", 0, 100)
				cvars[i], _ = cold.AddVar("x", 0, 100)
			}
			// nbase covering rows Σ aᵢxᵢ ≥ 10 (feasible inside the box).
			for r := 0; r < nbase; r++ {
				coeff := make([]float64, nv)
				for i := range coeff {
					coeff[i] = 1 + rng.Float64()
				}
				addRow(p, vars, coeff, GE, 10)
				addRow(cold, cvars, coeff, GE, 10)
			}
			obj := make([]float64, nv)
			for i := range obj {
				obj[i] = 0.5 + rng.Float64()
			}
			setObj(p, vars, obj)
			setObj(cold, cvars, obj)

			sol, hot, err := p.SolveHot(NewWorkspace())
			if err != nil || sol.Status != Optimal || hot == nil {
				t.Fatalf("trial %d: root: %+v %v", trial, sol, err)
			}
			if hot.rev == nil {
				t.Fatalf("trial %d: root program ran on the dense tableau kernel, not the revised core", trial)
			}
			for step := 0; step < 25; step++ {
				// Append a row loose enough to keep the current vertex:
				// Σ aᵢxᵢ ≤ current value + slack.
				coeff := make([]float64, nv)
				var at float64
				nz := false
				for i := range coeff {
					if a := rng.Float64(); a >= 0.3 {
						coeff[i] = a
						at += a * sol.Values[vars[i]]
						nz = true
					}
				}
				if !nz {
					continue
				}
				bound := at + 0.5 + rng.Float64()
				if err := hot.AppendLE(terms(vars, coeff), bound); err != nil {
					t.Fatalf("trial %d step %d: append: %v", trial, step, err)
				}
				addRow(cold, cvars, coeff, LE, bound)
				// Occasionally change the objective.
				if step%4 == 3 {
					for i := range obj {
						obj[i] = 0.5 + rng.Float64()
					}
					setObj(p, vars, obj)
					setObj(cold, cvars, obj)
				}
				sol, err = hot.Resolve()
				if err != nil || sol.Status != Optimal {
					t.Fatalf("trial %d step %d: resolve: %+v %v", trial, step, sol, err)
				}
				csol, err := cold.Solve()
				if err != nil || csol.Status != Optimal {
					t.Fatalf("trial %d step %d: cold: %+v %v", trial, step, csol, err)
				}
				if math.Abs(sol.Objective-csol.Objective) > 1e-5 {
					t.Fatalf("trial %d step %d: hot %g cold %g", trial, step, sol.Objective, csol.Objective)
				}
			}
		}
	})
}

// TestLUSolverRoundTrip: Factor/Solve/SolveT reproduce known solutions of
// random well-conditioned systems.
func TestLUSolverRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var lu LUSolver
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		a := make([]float64, n*n)
		for i := range a {
			a[i] = rng.Float64()*2 - 1
		}
		for i := 0; i < n; i++ {
			a[i*n+i] += 3 // diagonal dominance: well-conditioned
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.Float64()*4 - 2
		}
		b := make([]float64, n)
		bt := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b[i] += a[i*n+j] * want[j]
				bt[i] += a[j*n+i] * want[j]
			}
		}
		if !lu.Factor(a, n) {
			t.Fatalf("trial %d: factor failed", trial)
		}
		lu.Solve(b)
		lu.SolveT(bt)
		for i := 0; i < n; i++ {
			if math.Abs(b[i]-want[i]) > 1e-8 {
				t.Fatalf("trial %d: Solve x[%d]=%g want %g", trial, i, b[i], want[i])
			}
			if math.Abs(bt[i]-want[i]) > 1e-8 {
				t.Fatalf("trial %d: SolveT x[%d]=%g want %g", trial, i, bt[i], want[i])
			}
		}
	}
	// Singular matrices must be rejected.
	if lu.Factor(make([]float64, 9), 3) {
		t.Fatal("zero matrix factored")
	}
}

// TestRevisedDeterminism: the revised core must be bit-deterministic —
// identical programs yield identical solution vectors.
func TestRevisedDeterminism(t *testing.T) {
	withCore(CoreRevised, func() {
		rng := rand.New(rand.NewSource(77))
		for trial := 0; trial < 50; trial++ {
			p, _, _ := randomLP(rng)
			a, err := p.Solve()
			mustNoErr(t, err)
			b, err := p.Solve()
			mustNoErr(t, err)
			if a.Status != b.Status {
				t.Fatalf("trial %d: status %v vs %v", trial, a.Status, b.Status)
			}
			if a.Status != Optimal {
				continue
			}
			for i := range a.Values {
				if a.Values[i] != b.Values[i] {
					t.Fatalf("trial %d: x%d %v vs %v", trial, i, a.Values[i], b.Values[i])
				}
			}
		}
	})
}

func mustNoErr(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
