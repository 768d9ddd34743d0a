package verify

import (
	"encoding/binary"
	"math"

	"repro/internal/lp"
)

// This file is the deterministic fuzz-input decoder: arbitrary bytes are
// mapped to adversarially degenerate linear programs — the PR 5 fragile
// corpus generalized into a generator. Four regimes, selected by the
// first byte:
//
//	mode 0 — raw quantized programs: coefficients drawn from a small
//	  palette (exact duplicates and rational ratios arise constantly, so
//	  parallel rows, twin columns, and singular submatrices are the common
//	  case, not the exception), with explicit duplicate-row and
//	  twin-column operators layered on top;
//	mode 1 — twin-column membership stacks: hull-membership blocks whose
//	  point sets contain exact and 1e-12-perturbed duplicates, replicated
//	  past the small-program cutoff so the revised core's LU path faces
//	  the resulting near-singular bases;
//	mode 2 — Lemma-1-threshold hulls: the joint Γ-intersection program of
//	  a 16-bit-quantized multiset at the critical size |Y| = (d+1)f+1,
//	  the exact shape of the fragile corpus (EncodeGammaInstance converts
//	  those instances into this encoding for the seed corpus);
//	mode 3 — contradicted joint hulls: the mode-2 joint Γ-intersection
//	  shape over a twin-degenerate point set, with one constraint row
//	  duplicated verbatim under a right-hand side offset by a small
//	  controlled margin (≥ 1e-4), so the program is genuinely infeasible
//	  by an amount far above every solver tolerance yet far below the
//	  data scale. Modes 1 and 2 are feasible by construction, which is
//	  why no input of theirs can pair a wrong dense-core Optimal with a
//	  revised-core refutation; mode 3 closes that gap — on its programs
//	  any dense Optimal is necessarily an uncertifiable verdict.
//
// Every byte stream decodes to *some* program (exhausted input reads
// zeros); inputs shorter than 4 bytes are rejected so the empty input does
// not dominate fuzz exploration.

// ProgramSpec is a decoded LP in neutral form: Build constructs a fresh
// lp.Problem from it, so the differential fuzzer can solve the identical
// program once per core.
type ProgramSpec struct {
	Lo, Hi []float64 // per-variable bounds
	Rows   [][]lp.Term
	Rels   []lp.Rel
	Rhs    []float64
	Sense  lp.Sense
	Obj    []lp.Term
}

// Build constructs the program.
func (s *ProgramSpec) Build() (*lp.Problem, error) {
	p := lp.NewProblem()
	for i := range s.Lo {
		if _, err := p.AddVar("x", s.Lo[i], s.Hi[i]); err != nil {
			return nil, err
		}
	}
	for i, row := range s.Rows {
		if err := p.AddConstraint("r", row, s.Rels[i], s.Rhs[i]); err != nil {
			return nil, err
		}
	}
	if err := p.SetObjective(s.Sense, s.Obj); err != nil {
		return nil, err
	}
	return p, nil
}

// NumRows returns the constraint count (the small-core cutoff indicator).
func (s *ProgramSpec) NumRows() int { return len(s.Rows) }

// cursor reads fuzz bytes, yielding zeros once exhausted so every input
// decodes.
type cursor struct {
	data []byte
	i    int
}

func (c *cursor) u8() byte {
	if c.i >= len(c.data) {
		return 0
	}
	b := c.data[c.i]
	c.i++
	return b
}

func (c *cursor) u16() uint16 {
	return uint16(c.u8())<<8 | uint16(c.u8())
}

// coef is the mode-0 coefficient palette: small exact values whose ratios
// collide, the breeding ground for degenerate pivots.
var coefPalette = []float64{0, 0.5, 1, 2, -0.5, -1, -2, 1}

// boundPalette gives per-variable (lo, hi) pairs.
var boundPalette = [][2]float64{
	{0, 4},
	{-2, 2},
	{0, math.Inf(1)},
	{-1, 1},
}

// DecodeProgram decodes fuzz bytes into an adversarially degenerate LP.
// It returns nil for inputs too short to carry a mode selector.
func DecodeProgram(data []byte) *ProgramSpec {
	if len(data) < 4 {
		return nil
	}
	c := &cursor{data: data}
	switch c.u8() % 4 {
	case 0:
		return decodeRaw(c)
	case 1:
		return decodeTwinMembership(c)
	case 2:
		return decodeThresholdGamma(c)
	default:
		return decodeNearMiss(c)
	}
}

// decodeRaw builds a palette-coefficient program with explicit duplicate-
// row and twin-column operators.
func decodeRaw(c *cursor) *ProgramSpec {
	nv := 2 + int(c.u8()%10)
	nr := 4 + int(c.u8()%40)
	s := &ProgramSpec{Sense: lp.Minimize}
	for j := 0; j < nv; j++ {
		b := boundPalette[c.u8()%byte(len(boundPalette))]
		s.Lo = append(s.Lo, b[0])
		s.Hi = append(s.Hi, b[1])
	}
	// Dense coefficient matrix in palette values; rows may duplicate or
	// scale the previous row, columns may twin an earlier column.
	mat := make([][]float64, nr)
	for i := range mat {
		mat[i] = make([]float64, nv)
		switch kind := c.u8() % 4; {
		case kind == 2 && i > 0: // exact duplicate of the previous row
			copy(mat[i], mat[i-1])
		case kind == 3 && i > 0: // scaled copy (parallel constraint)
			for j, a := range mat[i-1] {
				mat[i][j] = 2 * a
			}
		default:
			for j := range mat[i] {
				mat[i][j] = coefPalette[c.u8()%byte(len(coefPalette))]
			}
		}
	}
	// Twin columns: copy column src over column dst.
	for t := int(c.u8() % 3); t > 0; t-- {
		src, dst := int(c.u8())%nv, int(c.u8())%nv
		for i := range mat {
			mat[i][dst] = mat[i][src]
		}
	}
	for i := range mat {
		row := make([]lp.Term, 0, nv)
		for j, a := range mat[i] {
			if a != 0 {
				row = append(row, lp.Term{Var: lp.VarID(j), Coeff: a})
			}
		}
		if len(row) == 0 {
			continue
		}
		s.Rows = append(s.Rows, row)
		s.Rels = append(s.Rels, []lp.Rel{lp.LE, lp.GE, lp.EQ}[c.u8()%3])
		s.Rhs = append(s.Rhs, coefPalette[c.u8()%byte(len(coefPalette))]*float64(1+c.u8()%3))
	}
	if c.u8()%2 == 1 {
		s.Sense = lp.Maximize
	}
	for j := 0; j < nv; j++ {
		if a := coefPalette[c.u8()%byte(len(coefPalette))]; a != 0 {
			s.Obj = append(s.Obj, lp.Term{Var: lp.VarID(j), Coeff: a})
		}
	}
	// Bounded boxes unless every variable drew the one unbounded palette
	// entry, so Unbounded verdicts stay reachable but rare.
	return s
}

// decodeTwinMembership stacks hull-membership blocks with twinned points.
func decodeTwinMembership(c *cursor) *ProgramSpec {
	d := 1 + int(c.u8()%3)
	f := 1 + int(c.u8()%2)
	pts := twinPoints(c, d, (d+1)*f+1)
	n := len(pts)
	z := make([]float64, d)
	if c.u8()%2 == 0 {
		for _, p := range pts { // centroid: inside every hull
			for l := range z {
				z[l] += p[l] / float64(n)
			}
		}
	} else {
		for l := range z { // far corner: outside unless the hull is huge
			z[l] = 2 + float64(c.u8()%3)
		}
	}
	return stackMembershipBlocks(pts, z, d)
}

// twinPoints draws n points in [0,1]^d with exact and 1e-12-perturbed
// duplicates, the mode-1/3 degeneracy source.
func twinPoints(c *cursor, d, n int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		ctrl := c.u8()
		if i > 0 && ctrl%4 == 0 { // exact twin of an earlier point
			pts[i] = append([]float64(nil), pts[int(ctrl/4)%i]...)
			continue
		}
		if i > 0 && ctrl%4 == 1 { // near-twin: 1e-12 perturbation
			src := pts[int(ctrl/4)%i]
			pt := append([]float64(nil), src...)
			pt[int(c.u8())%d] += 1e-12
			pts[i] = pt
			continue
		}
		pt := make([]float64, d)
		for l := range pt {
			pt[l] = float64(c.u16()) / 65535
		}
		pts[i] = pt
	}
	return pts
}

// stackMembershipBlocks replicates the membership block past the
// small-core cutoff so the revised LU path, not the small-program tableau
// kernel, faces the twins.
func stackMembershipBlocks(pts [][]float64, z []float64, d int) *ProgramSpec {
	blocks := 1 + (smallCutoffRows / (1 + 2*d))
	s := &ProgramSpec{Sense: lp.Minimize}
	for b := 0; b < blocks; b++ {
		appendMembershipBlock(s, pts, z, 1e-7)
	}
	return s
}

// decodeNearMiss builds the mode-2 joint Γ-intersection program — the
// shared-z, every-(n−f)-group shape where the dense core demonstrably
// grinds (every committed iteration-cap / refuted-infeasible /
// shared-verdict trigger is a mode-2-style program) — over a mode-1
// twin-degenerate point set, then *contradicts* it: one constraint row is
// duplicated verbatim with its right-hand side offset by a margin drawn
// from {1e-4, 3e-4, 1e-3}. The twin pair is jointly unsatisfiable, so the
// program is infeasible by at least margin/2 — far above every solver and
// certificate tolerance (the feasibility certificate's scaled rtol tops
// out near 5e-6 on these rows), yet far below the data scale, and
// discovering the contradiction takes a full Phase-1 resolution of the
// degenerate joint geometry, not a local bound check. Modes 1 and 2 are
// feasible by construction, which is why none of their inputs can pair a
// wrong dense-core Optimal with a revised-core refutation; on mode-3
// programs any dense Optimal is necessarily an uncertifiable verdict.
// d is fixed at 2 (64 rows): the d = 3 shape's 144+ rows sit past
// denseRowCap, where the differential harness never runs the dense core.
func decodeNearMiss(c *cursor) *ProgramSpec {
	const d, f = 2, 2
	pts := twinPoints(c, d, (d+1)*f+1)
	margin := []float64{1e-4, 3e-4, 1e-3}[c.u8()%3]
	rowPick := int(c.u8())
	s := &ProgramSpec{Sense: lp.Minimize}
	zbase := len(s.Lo)
	for l := 0; l < d; l++ {
		s.Lo = append(s.Lo, -4)
		s.Hi = append(s.Hi, 4)
	}
	appendJointGammaGroups(s, pts, f, zbase)
	k := rowPick % len(s.Rows)
	s.Rows = append(s.Rows, append([]lp.Term(nil), s.Rows[k]...))
	s.Rels = append(s.Rels, lp.EQ)
	s.Rhs = append(s.Rhs, s.Rhs[k]+margin)
	return s
}

// smallCutoffRows mirrors lp's small-program cutoff (32 rows): programs
// meant for the revised core must exceed it.
const smallCutoffRows = 32

// appendMembershipBlock adds one convex-weights block reproducing z.
func appendMembershipBlock(s *ProgramSpec, pts [][]float64, z []float64, tol float64) {
	base := len(s.Lo)
	sum := make([]lp.Term, len(pts))
	for i := range pts {
		s.Lo = append(s.Lo, 0)
		s.Hi = append(s.Hi, math.Inf(1))
		sum[i] = lp.Term{Var: lp.VarID(base + i), Coeff: 1}
	}
	s.Rows = append(s.Rows, sum)
	s.Rels = append(s.Rels, lp.EQ)
	s.Rhs = append(s.Rhs, 1)
	for l := range z {
		terms := make([]lp.Term, 0, len(pts))
		for i := range pts {
			if pts[i][l] != 0 {
				terms = append(terms, lp.Term{Var: lp.VarID(base + i), Coeff: pts[i][l]})
			}
		}
		if len(terms) == 0 {
			// Every point is zero in this coordinate: the convex hull is
			// flat there, so z is reachable iff z[l] ≈ 0. Encode the
			// infeasible case exactly (Σα = 2 conflicts with Σα = 1) and
			// skip the vacuous one.
			if z[l]-tol > 0 || z[l]+tol < 0 {
				s.Rows = append(s.Rows, []lp.Term{{Var: lp.VarID(base), Coeff: 1}})
				s.Rels = append(s.Rels, lp.EQ)
				s.Rhs = append(s.Rhs, 2)
			}
			continue
		}
		s.Rows = append(s.Rows, terms)
		s.Rels = append(s.Rels, lp.GE)
		s.Rhs = append(s.Rhs, z[l]-tol)
		hi := append([]lp.Term(nil), terms...)
		s.Rows = append(s.Rows, hi)
		s.Rels = append(s.Rels, lp.LE)
		s.Rhs = append(s.Rhs, z[l]+tol)
	}
}

// decodeThresholdGamma builds the joint Γ-intersection feasibility program
// of a quantized multiset at the Lemma-1 threshold size.
func decodeThresholdGamma(c *cursor) *ProgramSpec {
	d := 2 + int(c.u8()%2)
	f := 2
	n := (d+1)*f + 1
	pts := make([][]float64, n)
	for i := range pts {
		pt := make([]float64, d)
		for l := range pt {
			pt[l] = float64(c.u16()) / 65535
		}
		pts[i] = pt
	}
	s := &ProgramSpec{Sense: lp.Minimize}
	zbase := len(s.Lo)
	for l := 0; l < d; l++ {
		s.Lo = append(s.Lo, -10)
		s.Hi = append(s.Hi, 10)
	}
	appendJointGammaGroups(s, pts, f, zbase)
	return s
}

// appendJointGammaGroups appends the joint Γ-intersection constraint
// groups: for every (n−f)-subset of pts, fresh convex weights whose
// combination reproduces the shared z variables at zbase.
func appendJointGammaGroups(s *ProgramSpec, pts [][]float64, f, zbase int) {
	d := len(pts[0])
	keep := len(pts) - f
	for _, idx := range combinations(len(pts), keep) {
		base := len(s.Lo)
		sum := make([]lp.Term, keep)
		for i := 0; i < keep; i++ {
			s.Lo = append(s.Lo, 0)
			s.Hi = append(s.Hi, math.Inf(1))
			sum[i] = lp.Term{Var: lp.VarID(base + i), Coeff: 1}
		}
		s.Rows = append(s.Rows, sum)
		s.Rels = append(s.Rels, lp.EQ)
		s.Rhs = append(s.Rhs, 1)
		for l := 0; l < d; l++ {
			terms := make([]lp.Term, 0, keep+1)
			for i, j := range idx {
				if pts[j][l] != 0 {
					terms = append(terms, lp.Term{Var: lp.VarID(base + i), Coeff: pts[j][l]})
				}
			}
			terms = append(terms, lp.Term{Var: lp.VarID(zbase + l), Coeff: -1})
			s.Rows = append(s.Rows, terms)
			s.Rels = append(s.Rels, lp.EQ)
			s.Rhs = append(s.Rhs, 0)
		}
	}
}

// EncodeGammaInstance converts a fragile-corpus instance (the Lemma-1
// threshold multisets of internal/safearea's fragile tests: d ∈ {2,3},
// f = 2, coordinates from a seeded uniform stream) into the mode-2 fuzz
// encoding, 16-bit quantized. The decoded program is the joint
// Γ-intersection LP of the quantized multiset.
func EncodeGammaInstance(d int, coords [][]float64) []byte {
	out := []byte{2, byte(d - 2)}
	for _, pt := range coords {
		for _, x := range pt {
			q := uint16(math.Round(x * 65535))
			out = binary.BigEndian.AppendUint16(out, q)
		}
	}
	return out
}

// combinations enumerates all size-k subsets of {0..n−1} in lexicographic
// order (small n only — the Γ program shapes used here).
func combinations(n, k int) [][]int {
	var out [][]int
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		out = append(out, append([]int(nil), idx...))
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return out
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
