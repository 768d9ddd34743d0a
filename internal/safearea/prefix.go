// The prefix-dependence contract of the method ladder: the delta keys of
// core.Engine's sub-family memoization.
package safearea

import (
	"repro/internal/geometry"
	"repro/internal/hull"
	"repro/internal/tverberg"
)

// Resolve maps MethodAuto to the concrete method the ladder would run for a
// candidate multiset of the given size (n = |Y|), dimension and fault bound.
// Non-auto methods resolve to themselves. This mirrors PointWith's ladder
// exactly; keeping the two adjacent is load-bearing — the Engine's memo keys
// include the resolved method.
func Resolve(n, d, f int, method Method) Method {
	if method != MethodAuto {
		return method
	}
	switch {
	case d == 1, f == 0:
		return MethodAuto // closed forms; no sub-method to name
	case f == 1 && n >= d+2:
		return MethodRadon
	case n >= (d+1)*f+1:
		return MethodTverbergLift
	default:
		return MethodLexMinLP
	}
}

// PrefixLen returns how many leading members of a canonical (origin-sorted)
// candidate multiset of size n the Γ-point computed by PointWith actually
// depends on:
//
//   - MethodRadon reads the first d+2 members (RadonOfFirst);
//   - MethodTverbergLift reads the first (d+1)f+1 members (the lifted search
//     appends the rest to the last block, which cannot move the point);
//   - every other method — the d = 1 closed form, the f = 0 lex-min member,
//     the joint lex-min LP, the exhaustive search — depends on all n.
//
// Two candidate sets sharing their first PrefixLen members therefore share
// the Γ-point, PROVIDED the prefix computation certifies itself
// (PointOnPrefix): the Tverberg-lift fallback to the joint LP re-reads the
// whole multiset, so an unverified lift re-opens full dependence.
func PrefixLen(n, d, f int, method Method) int {
	switch Resolve(n, d, f, method) {
	case MethodRadon:
		if f == 1 && n > d+2 {
			return d + 2
		}
	case MethodTverbergLift:
		if m := (d+1)*f + 1; n > m {
			return m
		}
	}
	return n
}

// PointOnPrefix computes the Γ-point of any candidate multiset whose first
// members equal prefix (with |prefix| = PrefixLen(n, d, f, method) < n for
// the superset size n in question). The boolean result reports whether the
// point is *certified* from the prefix alone — bit-identical to what
// PointWith returns for every such superset:
//
//   - Radon: always certified (PointWith never verifies the f = 1 Radon
//     point; the partition extension only grows the second block's hull).
//   - Tverberg lift: certified iff the lifted partition of the prefix
//     verifies geometrically. Appending members only grows the last block's
//     hull, so prefix verification implies superset verification and the
//     superset path returns the identical lift point. An unverified prefix
//     is NOT certified: the superset's fallback (full-multiset joint LP, or
//     a verification rescued by the appended members — impossible, but kept
//     out of the trust base) must run from scratch.
//
// (false, nil) means the caller must fall back to the full candidate set.
func PointOnPrefix(prefix *geometry.Multiset, f int, method Method) (geometry.Vector, bool, error) {
	d := prefix.Dim()
	if d > 1 && f > 0 && multisetSpread(prefix) <= hull.DefaultTol {
		// The full multiset may take the degenerate-spread shortcut
		// (PointWith), whose result depends on ALL members — a prefix
		// cannot certify it.
		return nil, false, nil
	}
	switch Resolve(prefix.Len(), d, f, method) {
	case MethodRadon:
		if f != 1 || prefix.Len() < d+2 {
			return nil, false, nil
		}
		part, err := tverberg.RadonOfFirst(prefix)
		if err != nil {
			return nil, false, err
		}
		return part.Point, true, nil
	case MethodTverbergLift:
		if prefix.Len() < (d+1)*f+1 {
			return nil, false, nil
		}
		// Mirror PointWith's degenerate-input normalization exactly: the
		// parameters derive from the lift prefix — i.e. this whole
		// multiset — so the certified point stays bit-identical to the
		// full-set path.
		if lo, spread := normParamsOf(prefix, prefix.Len()); spread > 0 && (spread < 0.25 || spread > 4) {
			pt, ok, err := PointOnPrefix(normalizeMultiset(prefix, lo, spread), f, method)
			if err != nil || !ok {
				return nil, ok, err
			}
			return denormalizePoint(pt, lo, spread), true, nil
		}
		part, err := tverberg.Lift(prefix, f+1)
		if err != nil {
			return nil, false, nil // fall back to the full set, as PointWith would
		}
		if verr := tverberg.Verify(prefix, part, liftVerifyTol); verr != nil {
			return nil, false, nil
		}
		return part.Point, true, nil
	default:
		return nil, false, nil
	}
}
