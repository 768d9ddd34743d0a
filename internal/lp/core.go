package lp

import (
	"os"
	"sync/atomic"
)

// Core selects the simplex implementation behind Solve, SolveWith and
// SolveHot. The revised core (the default) maintains only the basis — as an
// LU factorization updated with an eta file per pivot and refactored
// periodically or when a stability monitor trips — so reduced costs are
// always priced from freshly factored bases instead of an incrementally
// updated tableau that accumulates drift. The dense core is the previous
// accumulated-tableau implementation, kept behind this flag for differential
// testing (CI runs the property suite against both).
type Core int32

// Simplex cores.
const (
	// CoreRevised is the LU-based revised simplex (default).
	CoreRevised Core = iota
	// CoreDense is the legacy dense accumulated-tableau simplex.
	CoreDense
)

func (c Core) String() string {
	if c == CoreDense {
		return "dense"
	}
	return "revised"
}

// activeCore holds the process-wide core selection. Reads are on the solve
// path, so it is an atomic rather than a mutex-guarded value.
var activeCore atomic.Int32

func init() {
	// REPRO_LP_CORE=dense pins the legacy dense tableau — the differential
	// CI job runs the test suite under both settings.
	if os.Getenv("REPRO_LP_CORE") == "dense" {
		activeCore.Store(int32(CoreDense))
	}
}

// ActiveCore returns the process-wide core selection.
func ActiveCore() Core { return Core(activeCore.Load()) }

// SetCore selects the simplex core process-wide and returns the previous
// selection. Both cores are deterministic; they may reach different (equally
// optimal) vertices on degenerate faces, so the selection must not be
// flipped between solves whose results are exchanged or memoized against
// each other.
func SetCore(c Core) Core {
	prev := activeCore.Swap(int32(c))
	return Core(prev)
}
