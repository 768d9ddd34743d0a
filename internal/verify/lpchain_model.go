package verify

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/lp"
)

// This file is the stateful model for the LP warm-start layer: one Hot
// (AppendLE/Resolve) handle kept alive across row appends and objective
// changes, checked against a cold from-scratch solve after every command.
// The invariants are exactly the documented warm-start contract: statuses
// agree, objectives agree within tolerance — solution *vectors* are
// deliberately not compared (on a degenerate optimal face a warm start may
// land on a different optimal vertex).

// lpObjTol bounds the hot-vs-cold objective disagreement.
const lpObjTol = 1e-6

// LPSystem carries the Hot chain. Construct with NewLPSystem.
type LPSystem struct {
	nv, baseRows int

	// The SUT handle plus the row/objective mirror the cold rebuild is
	// made from.
	hotProb *lp.Problem
	hotVars []lp.VarID
	hot     *lp.Hot
	hotSol  *lp.Solution
	base    [][]float64 // root covering rows (Σ aᵢxᵢ ≥ 10), dense nv coefficients
	rows    [][]float64 // appended ≤-rows, dense nv coefficients
	bounds  []float64   // appended-row bounds
	obj     []float64   // current objective coefficients
}

// maxHotRows caps the hot chain so one sequence stays cheap.
const maxHotRows = 40

// NewLPSystem builds the system: nv box-bounded variables and baseRows
// covering rows in the root program. The root's standard form has
// nv + baseRows rows, which selects the Hot implementation under test: at
// most 32 rows runs the dense tableau kernel, more runs the revised core.
func NewLPSystem(nv, baseRows int) *LPSystem {
	return &LPSystem{nv: nv, baseRows: baseRows}
}

// CmdHotAppend appends Σ Coeffs·x ≤ (current value + Slack) to the hot
// tableau and to the cold mirror, then compares Resolve against a cold
// solve. The bound is computed from the current hot solution, keeping the
// retained vertex feasible (the lex-min pinning shape).
type CmdHotAppend struct {
	Coeffs []float64
	Slack  float64
}

func (c CmdHotAppend) String() string { return fmt.Sprintf("HotAppend(%v, %g)", c.Coeffs, c.Slack) }

// CmdHotObjective replaces the objective on both sides and compares.
type CmdHotObjective struct{ Coeffs []float64 }

func (c CmdHotObjective) String() string { return fmt.Sprintf("HotObjective(%v)", c.Coeffs) }

// Reset implements System.
func (s *LPSystem) Reset(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	s.base = make([][]float64, s.baseRows)
	for r := range s.base {
		s.base[r] = make([]float64, s.nv)
		for i := range s.base[r] {
			s.base[r][i] = 0.5 + rng.Float64()
		}
	}
	s.obj = make([]float64, s.nv)
	for i := range s.obj {
		s.obj[i] = 0.5 + rng.Float64()
	}
	s.rows = s.rows[:0]
	s.bounds = s.bounds[:0]
	s.hotProb = lp.NewProblem()
	s.hotVars = make([]lp.VarID, s.nv)
	for i := range s.hotVars {
		v, err := s.hotProb.AddVar("x", 0, 100)
		if err != nil {
			panic(err)
		}
		s.hotVars[i] = v
	}
	for _, r := range s.base {
		if err := s.hotProb.AddConstraint("base", denseTerms(s.hotVars, r), lp.GE, 10); err != nil {
			panic(err)
		}
	}
	if err := s.hotProb.SetObjective(lp.Minimize, denseTerms(s.hotVars, s.obj)); err != nil {
		panic(err)
	}
	sol, hot, err := s.hotProb.SolveHot(lp.NewWorkspace())
	if err != nil || sol.Status != lp.Optimal || hot == nil {
		panic(fmt.Sprintf("verify: hot root solve failed: %+v %v", sol, err))
	}
	s.hot, s.hotSol = hot, sol
}

// Apply implements System.
func (s *LPSystem) Apply(cmd Command) error {
	switch c := cmd.(type) {
	case CmdHotAppend:
		if len(c.Coeffs) != s.nv || len(s.rows) >= maxHotRows || !(c.Slack > 0) {
			return nil
		}
		return s.applyHotAppend(c)
	case CmdHotObjective:
		if len(c.Coeffs) != s.nv {
			return nil
		}
		for _, a := range c.Coeffs {
			if !(a > 0) {
				return nil // a free variable direction would be unbounded
			}
		}
		copy(s.obj, c.Coeffs)
		if err := s.hotProb.SetObjective(lp.Minimize, denseTerms(s.hotVars, s.obj)); err != nil {
			return fmt.Errorf("%s: SetObjective: %w", c, err)
		}
		return s.checkHot(c)
	default:
		return fmt.Errorf("verify: unknown command %T", cmd)
	}
}

func (s *LPSystem) applyHotAppend(c CmdHotAppend) error {
	row := make([]lp.Term, 0, s.nv)
	var at float64
	for i, a := range c.Coeffs {
		if a == 0 {
			continue
		}
		row = append(row, lp.Term{Var: s.hotVars[i], Coeff: a})
		at += a * s.hotSol.Values[s.hotVars[i]]
	}
	if len(row) == 0 {
		return nil
	}
	bound := at + c.Slack
	if err := s.hot.AppendLE(row, bound); err != nil {
		return fmt.Errorf("%s: AppendLE rejected a satisfied row: %w", c, err)
	}
	s.rows = append(s.rows, append([]float64(nil), c.Coeffs...))
	s.bounds = append(s.bounds, bound)
	return s.checkHot(c)
}

// checkHot resolves the retained tableau and compares status + objective
// against a cold rebuild of the accumulated program.
func (s *LPSystem) checkHot(cmd Command) error {
	sol, err := s.hot.Resolve()
	if err != nil {
		return fmt.Errorf("%s: Resolve: %w", cmd, err)
	}
	cold := lp.NewProblem()
	cvars := make([]lp.VarID, s.nv)
	for i := range cvars {
		v, aerr := cold.AddVar("x", 0, 100)
		if aerr != nil {
			return aerr
		}
		cvars[i] = v
	}
	for _, r := range s.base {
		if cerr := cold.AddConstraint("base", denseTerms(cvars, r), lp.GE, 10); cerr != nil {
			return cerr
		}
	}
	for i, r := range s.rows {
		if cerr := cold.AddConstraint("app", denseTerms(cvars, r), lp.LE, s.bounds[i]); cerr != nil {
			return cerr
		}
	}
	if cerr := cold.SetObjective(lp.Minimize, denseTerms(cvars, s.obj)); cerr != nil {
		return cerr
	}
	csol, cerr := cold.Solve()
	if cerr != nil {
		return fmt.Errorf("%s: cold rebuild: %w", cmd, cerr)
	}
	if sol.Status != csol.Status {
		return fmt.Errorf("%s: hot %v, cold %v", cmd, sol.Status, csol.Status)
	}
	if sol.Status == lp.Optimal && math.Abs(sol.Objective-csol.Objective) > lpObjTol {
		return fmt.Errorf("%s: hot objective %g, cold %g (Δ=%g)", cmd, sol.Objective, csol.Objective, sol.Objective-csol.Objective)
	}
	s.hotSol = sol
	return nil
}

// LPGenerator is the default command mix: mostly row appends, with an
// objective swap one time in four.
func (s *LPSystem) LPGenerator() Generator {
	return func(rng *rand.Rand, _ int) Command {
		switch k := rng.Intn(4); {
		case k < 3:
			coeffs := make([]float64, s.nv)
			for i := range coeffs {
				if rng.Float64() < 0.7 {
					coeffs[i] = rng.Float64()
				}
			}
			return CmdHotAppend{Coeffs: coeffs, Slack: 0.5 + rng.Float64()}
		default:
			coeffs := make([]float64, s.nv)
			for i := range coeffs {
				coeffs[i] = 0.5 + rng.Float64()
			}
			return CmdHotObjective{Coeffs: coeffs}
		}
	}
}

func denseTerms(vars []lp.VarID, coeffs []float64) []lp.Term {
	terms := make([]lp.Term, 0, len(vars))
	for i, v := range vars {
		if coeffs[i] != 0 {
			terms = append(terms, lp.Term{Var: v, Coeff: coeffs[i]})
		}
	}
	return terms
}
