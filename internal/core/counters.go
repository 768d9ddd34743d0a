package core

import "sync/atomic"

// GammaCounters is a snapshot of the Γ-point engine's reuse counters,
// accumulated across every Engine in the process (the default engine and any
// explicitly configured ones). They quantify how much of the Γ workload the
// incremental layers absorbed:
//
//   - Solves: Γ-points computed from scratch (memo misses, or cache off);
//   - CacheHits: full-multiset memo hits (Observation 2 — identical
//     candidate sets across processes and rounds);
//   - PrefixHits: sub-family reuse — candidate sets that shared the
//     method-dependent prefix (first d+2 members for the Radon path, first
//     (d+1)f+1 for the Tverberg lift) of an already-solved sibling;
//   - RoundHits: whole-round hits — AverageGamma calls whose entire
//     canonical (origin-sorted) tuple set was already reduced: identical
//     inboxes across processes, including restricted-async B sets that
//     coincide as sets despite different arrival orders.
//
// cmd/bvcbench -json surfaces the per-measurement deltas and the derived
// reuse rate; CI gates on the e10 counters staying nonzero.
type GammaCounters struct {
	Solves     uint64
	CacheHits  uint64
	PrefixHits uint64
	RoundHits  uint64
}

// ReuseRate returns the fraction of Γ-point requests served without a
// from-scratch solve: (CacheHits+PrefixHits) / (those + Solves). RoundHits
// are excluded — a round hit suppresses its per-set requests entirely, so
// counting it here would double-bill.
func (c GammaCounters) ReuseRate() float64 {
	reused := c.CacheHits + c.PrefixHits
	if reused+c.Solves == 0 {
		return 0
	}
	return float64(reused) / float64(reused+c.Solves)
}

// Sub reports the counter deltas accumulated since the earlier snapshot.
func (c GammaCounters) Sub(earlier GammaCounters) GammaCounters {
	return GammaCounters{
		Solves:     c.Solves - earlier.Solves,
		CacheHits:  c.CacheHits - earlier.CacheHits,
		PrefixHits: c.PrefixHits - earlier.PrefixHits,
		RoundHits:  c.RoundHits - earlier.RoundHits,
	}
}

// gammaStats is the process-wide accumulator behind CountersSnapshot.
var gammaStats struct {
	solves, cacheHits, prefixHits, roundHits atomic.Uint64
}

// CountersSnapshot returns the current process-wide Γ-reuse counters.
func CountersSnapshot() GammaCounters {
	return GammaCounters{
		Solves:     gammaStats.solves.Load(),
		CacheHits:  gammaStats.cacheHits.Load(),
		PrefixHits: gammaStats.prefixHits.Load(),
		RoundHits:  gammaStats.roundHits.Load(),
	}
}

// ResetCounters zeroes the process-wide Γ-reuse counters (measurement
// harnesses only; the counters are monotone otherwise).
func ResetCounters() {
	gammaStats.solves.Store(0)
	gammaStats.cacheHits.Store(0)
	gammaStats.prefixHits.Store(0)
	gammaStats.roundHits.Store(0)
}
