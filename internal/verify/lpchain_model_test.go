package verify

import "testing"

// TestLPChainStateful drives the Hot warm-start chain: a retained handle
// accumulating appended rows and objective swaps, checked against cold
// from-scratch solves after every command. It runs once per Hot
// implementation: a 6-row root (dense tableau kernel) and a 37-row root
// (revised core).
func TestLPChainStateful(t *testing.T) {
	seeds, steps := 4, 50
	if testing.Short() {
		seeds, steps = 2, 25
	}
	for _, baseRows := range []int{1, 32} {
		sys := NewLPSystem(5, baseRows)
		for seed := int64(1); seed <= int64(seeds); seed++ {
			if fail := Run(sys, sys.LPGenerator(), seed, steps); fail != nil {
				t.Fatalf("baseRows=%d: %s", baseRows, fail.Report())
			}
		}
	}
}
