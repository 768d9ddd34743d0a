package tverberg

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/lp"
)

// minNormWith solves the minimum-norm-point problem min ‖x‖ over x ∈ conv(P)
// with Wolfe's algorithm (Wolfe 1976): it maintains a corral — an affinely
// independent subset whose affine minimum-norm point has strictly positive
// convex weights — and alternates adding the most violating point (major
// cycle) with projecting back onto the convex hull (minor cycles). The
// points are rows of p (all the same dimension); it returns the point and
// per-row convex weights (zero for rows outside the final corral).
//
// The computation is deterministic: ties in point selection break toward
// the lowest row index. It is exact up to floating point on the tiny, dense
// systems this package produces (corral size ≤ dim+1, dim ≲ a few dozen).
type minNormResult struct {
	x      []float64 // the minimum-norm point
	norm2  float64   // ‖x‖²
	lambda []float64 // convex weights per input row
}

const (
	// mnTol bounds the duality gap ⟨x, x − p_j⟩ accepted at termination.
	mnTol = 1e-12
	// mnWeightEps is the threshold below which an affine weight counts as
	// leaving the corral during a minor cycle.
	mnWeightEps = 1e-12
	// mnMaxIter caps major cycles; Wolfe terminates finitely, so hitting
	// the cap indicates numerical trouble on a degenerate instance.
	mnMaxIter = 1000
)

// minNormScratch holds every buffer one min-norm solve needs; reusing it
// across solves (the lifted search runs one solve per Bárány pivot) makes
// the solver allocation-free in steady state. The result's x and lambda
// slices alias the scratch and are only valid until the next solve.
type minNormScratch struct {
	affine  affineScratch
	corral  []int
	weights []float64
	x       []float64
	lambda  []float64
	res     minNormResult
}

// minNormWith runs the solve described at minNormResult in caller-managed
// scratch. The arithmetic is identical to a fresh-scratch solve — buffers
// only change where the values live, never the operation order — so results
// are bit-identical.
func minNormWith(p [][]float64, sc *minNormScratch) (*minNormResult, error) {
	if len(p) == 0 {
		return nil, errors.New("tverberg: min-norm of empty set")
	}
	dim := len(p[0])

	// Start the corral with the smallest-norm row (lowest index on ties).
	start, best := 0, math.Inf(1)
	for i, row := range p {
		if len(row) != dim {
			return nil, fmt.Errorf("tverberg: min-norm row %d has dimension %d, want %d", i, len(row), dim)
		}
		if n2 := dot(row, row); n2 < best {
			start, best = i, n2
		}
	}
	corral := append(sc.corral[:0], start)
	weights := append(sc.weights[:0], 1)
	x := append(sc.x[:0], p[start]...)

	scratch := &sc.affine
	for iter := 0; iter < mnMaxIter; iter++ {
		// Major cycle: the most violating point minimizes ⟨x, p_j⟩.
		x2 := dot(x, x)
		enter, bestDot := -1, x2-mnTol*(1+x2)
		for j, row := range p {
			if d := dot(x, row); d < bestDot {
				enter, bestDot = j, d
			}
		}
		if enter < 0 {
			return sc.result(p, x, corral, weights), nil
		}
		if containsIndex(corral, enter) {
			// The best improving point is already in the corral: x is the
			// convex (not just affine) optimum over it up to tolerance.
			return sc.result(p, x, corral, weights), nil
		}
		corral = append(corral, enter)
		weights = append(weights, 0)

		// Minor cycles: project onto the affine hull of the corral; while
		// the affine weights leave the simplex, step to the boundary and
		// drop the vanished points.
		for {
			affine, err := scratch.affineMinNorm(p, corral)
			if err != nil {
				return nil, err
			}
			neg := false
			for _, w := range affine {
				if w < mnWeightEps {
					neg = true
					break
				}
			}
			if !neg {
				weights = weights[:len(corral)]
				copy(weights, affine)
				break
			}
			// Largest step θ ∈ [0,1) from weights toward affine keeping
			// all weights ≥ 0: θ = min over decreasing weights of
			// w/(w−a).
			theta := 1.0
			for i := range corral {
				w, a := weights[i], affine[i]
				if a < mnWeightEps && w > a {
					if t := w / (w - a); t < theta {
						theta = t
					}
				}
			}
			kept := corral[:0]
			keptW := weights[:0]
			for i, idx := range corral {
				w := weights[i] + theta*(affine[i]-weights[i])
				if w > mnWeightEps {
					kept = append(kept, idx)
					keptW = append(keptW, w)
				}
			}
			if len(kept) == 0 {
				return nil, errors.New("tverberg: min-norm corral collapsed")
			}
			corral = kept
			weights = normalize(keptW)
		}

		// Recompute x from the new corral weights.
		clearF(x)
		for i, idx := range corral {
			axpy(x, weights[i], p[idx])
		}
	}
	return nil, errors.New("tverberg: min-norm iteration cap exceeded")
}

// affineScratch holds the dense solve buffers for affineMinNorm. The KKT
// systems are factored with the shared LU kernel of the revised simplex
// core (lp.LUSolver), so the whole Γ-point pipeline — simplex bases and
// Wolfe corrals alike — runs on one factorization implementation.
type affineScratch struct {
	m   []float64
	rhs []float64
	lu  lp.LUSolver
}

// kktPivotEps matches the pre-LU solveDense threshold: the corral KKT
// systems are Gram matrices of lifted points, not the row-equilibrated
// O(1) data the solver's default assumes, and narrowing the accepted
// pivots by two orders would push previously solvable corrals onto the
// expensive fallback ladder.
const kktPivotEps = 1e-13

// affineMinNorm returns the weights α (Σα = 1, unconstrained sign) of the
// minimum-norm point of the affine hull of the selected rows, from the KKT
// system [[0 1ᵀ][1 G]]·[μ α]ᵀ = [1 0]ᵀ with G the Gram matrix.
func (s *affineScratch) affineMinNorm(p [][]float64, sel []int) ([]float64, error) {
	k := len(sel)
	n := k + 1
	m := growF(&s.m, n*n)
	rhs := growF(&s.rhs, n)
	clearF(m)
	clearF(rhs)
	rhs[0] = 1
	s.lu.Eps = kktPivotEps
	for i := 0; i < k; i++ {
		m[0*n+1+i] = 1
		m[(1+i)*n+0] = 1
		for j := i; j < k; j++ {
			g := dot(p[sel[i]], p[sel[j]])
			m[(1+i)*n+1+j] = g
			m[(1+j)*n+1+i] = g
		}
	}
	if !s.lu.Factor(m, n) {
		return nil, errors.New("tverberg: affine min-norm system singular")
	}
	s.lu.Solve(rhs)
	return rhs[1 : 1+k], nil
}

// result assembles the final point and full-length weight vector into the
// scratch-owned buffers (valid until the next solve on this scratch) and
// hands the grown working slices back to the scratch for reuse.
func (sc *minNormScratch) result(p [][]float64, x []float64, corral []int, weights []float64) *minNormResult {
	sc.corral, sc.weights, sc.x = corral, weights, x
	lambda := growF(&sc.lambda, len(p))
	clearF(lambda)
	for i, idx := range corral {
		lambda[idx] = weights[i]
	}
	sc.res = minNormResult{x: x, norm2: dot(x, x), lambda: lambda}
	return &sc.res
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func axpy(dst []float64, w float64, src []float64) {
	for i := range dst {
		dst[i] += w * src[i]
	}
}

func clearF(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

func normalize(w []float64) []float64 {
	var s float64
	for _, v := range w {
		s += v
	}
	if s > 0 {
		for i := range w {
			w[i] /= s
		}
	}
	return w
}

func containsIndex(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func growF(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}
