package main

import (
	"fmt"
	"math"

	"repro"
)

// checkDecisions is the live workloads' correctness check for one
// instance: every decision lies in the convex hull of the instance's
// inputs (validity, within the library's geometric tolerance) and every
// two decisions are within eps of each other in every coordinate
// (ε-agreement).
func checkDecisions(inputs, decisions [][]float64, eps float64) error {
	if len(decisions) == 0 {
		return fmt.Errorf("no decisions")
	}
	for i, dec := range decisions {
		in, err := bvc.InConvexHull(inputs, dec)
		if err != nil {
			return fmt.Errorf("decision %d: %w", i, err)
		}
		if !in {
			return fmt.Errorf("decision %d %v outside the hull of the inputs", i, dec)
		}
	}
	if spread := spreadInf(decisions); spread > eps {
		return fmt.Errorf("decisions spread %.3g in one coordinate, above ε=%g", spread, eps)
	}
	return nil
}

// spreadInf returns the largest per-coordinate range over vectors.
func spreadInf(vectors [][]float64) float64 {
	var worst float64
	for j := range vectors[0] {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vectors {
			lo, hi = math.Min(lo, v[j]), math.Max(hi, v[j])
		}
		worst = math.Max(worst, hi-lo)
	}
	return worst
}
