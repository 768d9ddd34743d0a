package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro"
	"repro/internal/harness"
)

// approxCell is sim-approx's committed e10 cell, an index into
// harness.E10RowCells: the §3.2 approximate async row with witnesses,
// n=15, d=4, f=2, one lure adversary and exponential delays. Its cost is
// the AAD/RBC message path of the discrete-event engine.
const approxCell = 1

const (
	// simPool is how many runs' inputs set-up generates (more than any
	// run measures; later runs generate their inputs on the fly).
	simPool = 1024
	// simSetupRepeats is how many times a run repeats its set-up; setup_s
	// reports the median. Each repetition starts after a forced GC, so it
	// does not pay for the previous one's garbage.
	simSetupRepeats = 31
	// simWarmup is how many unmeasured runs precede the measurement.
	simWarmup = 5
)

// simCell is the simulated workload: the cell's configuration, adversary
// and delay model, resolved the way the harness's sweep runner resolves
// them.
type simCell struct {
	cell   harness.SweepCell
	cfg    bvc.Config
	budget harness.RoundBudget
	delay  bvc.DelaySpec
	byz    []bvc.Byzantine
	// k is the Γ multiset size of one candidate set: n−f.
	k int
}

func newSimCell() (*simCell, error) {
	c, err := harness.E10RowCells[approxCell].Normalize()
	if err != nil {
		return nil, err
	}
	if c.Variant != "approx" || c.Delay != "exponential" || c.Adversary != "lure" {
		return nil, fmt.Errorf("e10 cell %d is %s/%s/%s, not approx/exponential/lure", approxCell, c.Variant, c.Delay, c.Adversary)
	}
	sc := &simCell{cell: c, k: c.N - c.F}
	sc.budget = harness.GammaBudget(bvc.ApproxAsync, c.N, c.F, 1, c.Epsilon, true)
	sc.cfg = bvc.Config{
		N: c.N, F: c.F, D: c.D,
		Epsilon:             c.Epsilon,
		Lo:                  []float64{0},
		Hi:                  []float64{1},
		WitnessOptimization: true,
	}
	if !sc.budget.Full {
		sc.cfg.MaxRounds = sc.budget.Rounds
	}
	sc.delay = bvc.DelaySpec{Kind: bvc.DelayExponential, Mean: 3 * time.Millisecond}
	one := make(bvc.Vector, c.D)
	for i := range one {
		one[i] = 1
	}
	sc.byz = []bvc.Byzantine{{ID: c.N - 1, Strategy: bvc.StrategyLure, Target: one}}
	return sc, nil
}

// runSeed derives run i's seed from the workload seed.
func runSeed(seed int64, i int) int64 { return seed<<20 + int64(i) }

// inputs draws one run's inputs: uniform in [0,1]^d, nil in the
// Byzantine slots.
func (sc *simCell) inputs(seed int64) []bvc.Vector {
	in := harness.UniformInputs(rand.New(rand.NewSource(seed)), sc.cfg.N, sc.cfg.D, 0, 1)
	for _, b := range sc.byz {
		in[b.ID] = nil
	}
	return in
}

// inputPool generates the first simPool runs' inputs.
func (sc *simCell) inputPool(seed int64) [][]bvc.Vector {
	pool := make([][]bvc.Vector, simPool)
	for i := range pool {
		pool[i] = sc.inputs(runSeed(seed, i))
	}
	return pool
}

func (sc *simCell) runInputs(pool [][]bvc.Vector, seed int64, i int) []bvc.Vector {
	if i < len(pool) {
		return pool[i]
	}
	return sc.inputs(runSeed(seed, i))
}

// simulate runs the cell once through the public API, stepping nodes and
// solving Γ-points serially (Workers and NodeWorkers 1; decisions are
// bit-identical for every setting). On a 2-CPU host shared with other
// work, the parallel engine's wall time follows whatever else holds the
// second CPU, while a serial run measures the work itself. On this cell
// serial stepping is also faster: its 82,800 small deliveries cost more
// to fan out across workers than to run. The traced run times the
// parallel paths apart (sim.parallel_ms_per_op).
func (sc *simCell) simulate(inputs []bvc.Vector, seed int64) (*bvc.Result, error) {
	return sc.simulateWith(inputs, bvc.SimOptions{Seed: seed, Delay: sc.delay, Workers: 1, NodeWorkers: 1})
}

// simulateWith runs the cell with the given options. The Γ memo is
// emptied first, so every run starts cold and no run is served by a
// previous run's (or a replay's) solves.
func (sc *simCell) simulateWith(inputs []bvc.Vector, opts bvc.SimOptions) (*bvc.Result, error) {
	bvc.ResetEngineCaches()
	return bvc.SimulateApproxAsync(sc.cfg, inputs, sc.byz, opts)
}

// verify applies the cell's harness verify mode: ε-agreement and validity
// under the full analytic round budget, contraction of the correct range
// and validity under a γ-horizon.
func (sc *simCell) verify(res *bvc.Result) error {
	if got, want := len(res.Decisions()), sc.cfg.N-len(sc.byz); got != want {
		return fmt.Errorf("%d decisions, want %d", got, want)
	}
	if sc.budget.Full {
		return res.VerifyApprox()
	}
	spreads := historySpreads(res)
	if len(spreads) < 2 || !(spreads[len(spreads)-1] < spreads[0]) {
		return fmt.Errorf("correct range did not contract over the %d-round horizon: %v", sc.budget.Rounds, spreads)
	}
	return res.VerifyValidity()
}

// historySpreads returns the correct processes' spread after every round.
func historySpreads(res *bvc.Result) []float64 {
	var hs [][]bvc.Vector
	rounds := -1
	for _, p := range res.Processes {
		if p.Byzantine {
			continue
		}
		hs = append(hs, p.History)
		if rounds < 0 || len(p.History) < rounds {
			rounds = len(p.History)
		}
	}
	out := make([]float64, 0, max(rounds, 0))
	for t := 0; t < rounds; t++ {
		col := make([][]float64, len(hs))
		for i, h := range hs {
			col[i] = h[t]
		}
		out = append(out, spreadInf(col))
	}
	return out
}

// simRun is one checked simulated run.
type simRun struct {
	res              *bvc.Result // nil when the run itself failed
	start            time.Time   // when the Simulate call began
	wall, cpu, check time.Duration
}

// runChecked runs and verifies run i: the Simulate call's wall and CPU
// time, then the check (with the mutation hook applied before it).
func (sc *simCell) runChecked(o options, pool [][]bvc.Vector, i int) (simRun, error) {
	inputs := sc.runInputs(pool, o.seed, i)
	c0, t0 := cpuTime(), time.Now()
	res, err := sc.simulate(inputs, runSeed(o.seed, i))
	run := simRun{start: t0, wall: time.Since(t0), cpu: cpuTime() - c0}
	if err != nil {
		return run, fmt.Errorf("run %d: %w", i, err)
	}
	run.res = res
	t1 := time.Now()
	if o.mutate != nil {
		o.mutate(i, res.Decisions())
	}
	err = sc.verify(res)
	run.check = time.Since(t1)
	if err != nil {
		return run, fmt.Errorf("run %d: %w", i, err)
	}
	return run, nil
}

// runSim drives the sim workload: repeated set-up, warmup runs, then
// verified runs back to back for the measured time. ops_per_s and the
// latencies count only the Simulate calls, not the checks between them.
func runSim(o options) (*outcome, error) {
	sc, err := newSimCell()
	if err != nil {
		return nil, err
	}
	// One P for the whole sim workload, the collector included: a serial
	// run then needs one CPU and no longer waits whenever other work holds
	// the host's second one.
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	var setups []time.Duration
	var pool [][]bvc.Vector
	for r := 0; r < simSetupRepeats; r++ {
		runtime.GC()
		t0 := time.Now()
		pool = sc.inputPool(o.seed)
		setups = append(setups, time.Since(t0))
	}
	if o.trace {
		return traceSim(o, sc, pool, procs)
	}
	out := &outcome{}
	for i := 0; i < simWarmup; i++ {
		_, err := sc.runChecked(o, pool, i)
		out.tally.record(err)
	}
	runtime.GC() // start the measurement without the warmup's garbage
	var m measure
	deadline := time.Now().Add(seconds(o.seconds))
	for i := simWarmup; time.Now().Before(deadline); i++ {
		run, err := sc.runChecked(o, pool, i)
		out.tally.record(err)
		m.wall += run.wall
		m.cpu += run.cpu
		if err == nil {
			m.ops++
			m.lat = append(m.lat, ms(run.wall))
		}
	}
	out.metrics = endToEndMetrics(m, setups)
	out.notes = append(out.notes, fmt.Sprintf("%s: %d verified runs (+%d warmup), %d latency samples, verify mode %s",
		harness.E10RowName(sc.cell), m.ops, simWarmup, len(m.lat), sc.verifyMode()))
	return out, nil
}

func (sc *simCell) verifyMode() string {
	if sc.budget.Full {
		return "eps-agreement+validity"
	}
	return fmt.Sprintf("contraction+validity over a %d-round horizon", sc.budget.Rounds)
}
