package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro"
	"repro/internal/aad"
	"repro/internal/adversary"
	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/safearea"
	"repro/internal/sim"
)

// The traced sim run has to see node callbacks, which
// bvc.SimulateApproxAsync does not expose, so it assembles the same stack
// from the exported constructors — core nodes, the lure strategy,
// sim.NewEngine — with every node wrapped in a tracedNode. Its decisions
// must be bit-identical to the untraced bvc.SimulateApproxAsync run of the
// same seed, or the trace is void (and counted as a failure).

// Span names of the sim workloads.
const (
	spanSimRun    = "sim.run"    // one run: assembly, engine, decisions
	spanNodeInit  = "node.init"  // a node's Init callback
	spanNodeRound = "node.round" // a correct callback that completed a round (Γ + averaging)
	spanNodeMsg   = "node.msg"   // a correct callback that did not (AAD/RBC handling)
	spanNodeByz   = "node.byz"   // a Byzantine node's callback
)

// tracedNode times each callback of the node it wraps. The engine never
// runs one node's callbacks concurrently (and here steps nodes serially),
// so the span buffer needs no lock.
type tracedNode struct {
	inner   sim.Node
	byz     bool
	decided func() bool // nil for Byzantine nodes
	tr      *tracer
	api     watchAPI
	spans   []span
}

// watchAPI forwards a node's API calls and notes the ones that mark a
// completed round: the broadcast that opens the next round (a StateMsg,
// or the RBC initial send of the node's next round value) and Halt.
type watchAPI struct {
	sim.API
	advanced bool
}

func (w *watchAPI) Broadcast(msg sim.Message) {
	switch m := msg.(type) {
	case core.StateMsg:
		w.advanced = true
	case aad.Msg:
		if m.Kind == aad.KindRBC && m.RBC.Phase == broadcast.RBCInit {
			w.advanced = true
		}
	}
	w.API.Broadcast(msg)
}

func (w *watchAPI) Halt() {
	w.advanced = true
	w.API.Halt()
}

func (n *tracedNode) Init(api sim.API) {
	n.api.API = api
	t0 := time.Now()
	n.inner.Init(&n.api)
	n.spans = append(n.spans, span{Name: spanNodeInit, Start: n.tr.at(t0), End: n.tr.at(time.Now())})
}

func (n *tracedNode) OnMessage(api sim.API, from sim.ProcID, msg sim.Message) {
	n.api.API, n.api.advanced = api, false
	before := n.decided != nil && n.decided()
	t0 := time.Now()
	n.inner.OnMessage(&n.api, from, msg)
	t1 := time.Now()
	name := spanNodeMsg
	switch {
	case n.byz:
		name = spanNodeByz
	case n.api.advanced || (!before && n.decided()):
		name = spanNodeRound
	}
	n.spans = append(n.spans, span{Name: name, Start: n.tr.at(t0), End: n.tr.at(t1)})
}

// serialEngine is the traced stack's Γ engine: serial and memoized, as
// bvc.SimOptions{Workers: 1} configures the untraced runs.
var serialEngine = core.NewEngine(1, true)

// tracedRun is one assembled, traced execution.
type tracedRun struct {
	nodes     []*tracedNode
	decisions []func() (geometry.Vector, error) // per correct process, in id order
}

// params mirrors bvc.Config's conversion to the core parameter form.
func (sc *simCell) params() core.Params {
	c := sc.cfg
	return core.Params{
		N: c.N, F: c.F, D: c.D,
		Epsilon:   c.Epsilon,
		Bounds:    geometry.UniformBox(c.D, c.Lo[0], c.Hi[0]),
		Method:    safearea.MethodAuto,
		MaxRounds: c.MaxRounds,
		Engine:    serialEngine,
	}
}

// assemble builds the cell's node stack for one run, wrapped for
// tracing: §3.2 async nodes with witnesses for the correct processes, the
// library's async lure strategy for the Byzantine ones.
func (sc *simCell) assemble(tr *tracer, inputs []bvc.Vector) (*tracedRun, error) {
	c := sc.cfg
	isByz := make(map[int]bvc.Byzantine, len(sc.byz))
	for _, b := range sc.byz {
		isByz[b.ID] = b
	}
	run := &tracedRun{nodes: make([]*tracedNode, c.N)}
	p := sc.params()
	rounds := 0
	for i := 0; i < c.N; i++ {
		if _, ok := isByz[i]; ok {
			continue
		}
		nd, err := core.NewAsyncNode(core.AsyncConfig{Params: p, WitnessOpt: true, MaxRounds: c.MaxRounds}, sim.ProcID(i), geometry.Vector(inputs[i]).Clone())
		if err != nil {
			return nil, err
		}
		run.nodes[i] = &tracedNode{inner: nd, decided: nd.Decided, tr: tr}
		run.decisions = append(run.decisions, nd.Decision)
		rounds = max(rounds, nd.Rounds())
	}
	for id, b := range isByz {
		adv, err := adversary.NewAsyncLure(c.N, c.F, c.D, rounds, sim.ProcID(id), geometry.Vector(b.Target).Clone())
		if err != nil {
			return nil, err
		}
		run.nodes[id] = &tracedNode{inner: adv, byz: true, tr: tr}
	}
	return run, nil
}

// simulateTraced runs one traced execution and returns its correct
// decisions, the run's root span (from the memo reset to the collected
// decisions, as runChecked times the untraced run) and every node span.
func (sc *simCell) simulateTraced(tr *tracer, inputs []bvc.Vector, seed int64) ([][]float64, span, []span, error) {
	t0 := time.Now()
	root := span{Name: spanSimRun, Start: tr.at(t0)}
	serialEngine.Reset()
	run, err := sc.assemble(tr, inputs)
	if err != nil {
		return nil, root, nil, err
	}
	nodes := make([]sim.Node, len(run.nodes))
	for i, nd := range run.nodes {
		nodes[i] = nd
	}
	eng, err := sim.NewEngine(sim.Config{N: sc.cfg.N, Seed: seed, Delay: sim.ExponentialDelay{Mean: sc.delay.Mean}, NodeWorkers: 1}, nodes)
	if err != nil {
		return nil, root, nil, err
	}
	if _, err := eng.Run(); err != nil {
		return nil, root, nil, err
	}
	decs := make([][]float64, 0, len(run.decisions))
	for i, get := range run.decisions {
		d, err := get()
		if err != nil {
			return nil, root, nil, fmt.Errorf("correct process %d: %w", i, err)
		}
		decs = append(decs, d)
	}
	root.End = tr.at(time.Now())
	var spans []span
	for _, nd := range run.nodes {
		spans = append(spans, nd.spans...)
	}
	return decs, root, spans, nil
}

// bitIdentical reports whether two decision lists are equal bit for bit.
func bitIdentical(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// traceSim is the traced run of the sim workload. It runs the same seeds
// three times: untraced and serial through bvc.SimulateApproxAsync (for
// the Γ and runtime counters, the reference decisions and the overhead
// baseline), traced through the assembled stack, and through the
// library's default parallel engine with GOMAXPROCS back at procs. Then
// it replays the kernels on Γ-sized multisets drawn from the untraced
// runs' histories.
func traceSim(o options, sc *simCell, pool [][]bvc.Vector, procs int) (*outcome, error) {
	out := &outcome{metrics: zeroLayers()}
	for i := 0; i < simWarmup; i++ {
		_, err := sc.runChecked(o, pool, i)
		out.tally.record(err)
	}
	phase := seconds(o.seconds * 0.4)
	first := simWarmup

	// Untraced phase.
	var (
		refs               [][][]float64
		untraced           time.Duration
		msgs, rounds       int64
		samples            [][]geometry.Vector
		sampleRng          = rand.New(rand.NewSource(o.seed ^ 0x6b65726e))
		before             = readRuntime()
		end                = time.Now().Add(phase)
		checkTime          time.Duration
		checked, sampleCap = 0, 64
		gaps               []float64 // ms from one run's end to the next run's start
		prevEnd            time.Time
	)
	for i := first; len(refs) == 0 || time.Now().Before(end); i++ {
		run, err := sc.runChecked(o, pool, i)
		out.tally.record(err)
		untraced += run.wall
		if !prevEnd.IsZero() {
			gaps = append(gaps, ms(run.start.Sub(prevEnd)))
		}
		prevEnd = run.start.Add(run.wall)
		res := run.res
		if res == nil {
			refs = append(refs, nil)
			continue
		}
		checkTime += run.check
		checked++
		refs = append(refs, res.Decisions())
		msgs += res.Messages
		rounds += int64(correctRounds(res))
		if len(samples) < sampleCap {
			samples = append(samples, sc.historySamples(res, sampleRng, 4)...)
		}
	}
	runs := len(refs)
	runtimeLayers(out.metrics, before, readRuntime(), runs)
	out.metrics["sim.msgs_per_op"] = perOp(float64(msgs), runs)
	out.metrics["sim.rounds_per_op"] = perOp(float64(rounds), runs)
	out.metrics["bench.check_us_per_op"] = perOp(us(checkTime), checked)
	out.metrics["bench.gen_lag_ms_p99"] = percentile(sortedCopy(gaps), 0.99)

	// Traced phase: the same seeds, through the assembled stack.
	tr := newTracer()
	var (
		traced                        time.Duration
		roundTotal, msgTotal, selfSum time.Duration
		msgCount, tracedOK            int
	)
	for r := 0; r < runs; r++ {
		i := first + r
		decs, root, spans, err := sc.simulateTraced(tr, sc.runInputs(pool, o.seed, i), runSeed(o.seed, i))
		switch {
		case err != nil:
			out.tally.record(fmt.Errorf("traced run %d: %w", i, err))
			continue
		case !bitIdentical(decs, refs[r]):
			out.tally.record(fmt.Errorf("traced run %d: decisions differ from the untraced run; the trace is void", i))
			continue
		}
		out.tally.record(nil)
		traced += root.dur()
		tracedOK++
		root.Trace, root.ID = uint64(r+1), 1
		for j := range spans {
			spans[j].Trace, spans[j].ID, spans[j].Parent = root.Trace, uint32(j+2), root.ID
			switch spans[j].Name {
			case spanNodeRound:
				roundTotal += spans[j].dur()
			case spanNodeMsg:
				msgTotal += spans[j].dur()
				msgCount++
			}
		}
		selfSum += selfTime(root, spans)
		tr.keep(root)
		if r == 0 {
			tr.keep(spans...)
		}
	}
	out.metrics["core.round_step_ms_per_op"] = perOp(ms(roundTotal), tracedOK)
	out.metrics["core.msg_step_us"] = perOp(us(msgTotal), msgCount)
	out.metrics["sim.self_ms_per_op"] = perOp(ms(selfSum), tracedOK)
	// Mean traced run time over mean untraced run time, same seeds.
	out.metrics["bench.trace_overhead"] = ratio(perOp(float64(traced), tracedOK), perOp(float64(untraced), runs))

	// Parallel phase: the first of the same seeds through the library's
	// default engine (Workers and NodeWorkers 0, so the Γ fan-out and the
	// node stepping use every P), which the serial gated runs never reach.
	runtime.GOMAXPROCS(procs)
	var parallel time.Duration
	parallelOK := 0
	end = time.Now().Add(seconds(o.seconds * 0.1))
	for r := 0; r < runs && (parallelOK == 0 || time.Now().Before(end)); r++ {
		if refs[r] == nil {
			continue // the serial run failed and was counted
		}
		i := first + r
		t0 := time.Now()
		res, err := sc.simulateWith(sc.runInputs(pool, o.seed, i), bvc.SimOptions{Seed: runSeed(o.seed, i), Delay: sc.delay})
		took := time.Since(t0)
		switch {
		case err != nil:
			out.tally.record(fmt.Errorf("parallel run %d: %w", i, err))
			continue
		case !bitIdentical(res.Decisions(), refs[r]):
			out.tally.record(fmt.Errorf("parallel run %d: decisions differ from the serial run", i))
			continue
		}
		out.tally.record(nil)
		parallel += took
		parallelOK++
	}
	runtime.GOMAXPROCS(1)
	out.metrics["sim.parallel_ms_per_op"] = perOp(ms(parallel), parallelOK)

	for name, v := range replayKernels(samples, sc.cfg.F, seconds(o.seconds*0.15), &out.tally) {
		out.metrics[name] = v
	}
	out.notes = append(out.notes, fmt.Sprintf("traced %d runs of %s (%d kernel multisets); spans in %s",
		runs, sc.cell.Name(), len(samples), o.traceOut))
	return out, tr.write(o.traceOut, o.workload, o.seed)
}

// correctRounds returns the round count of the first correct process.
func correctRounds(res *bvc.Result) int {
	for _, p := range res.Processes {
		if !p.Byzantine {
			return p.Rounds
		}
	}
	return 0
}

// historySamples draws count Γ-sized multisets from one run: each takes
// a random round (late, near-coincident rounds included) and the round's
// values of k distinct correct processes.
func (sc *simCell) historySamples(res *bvc.Result, rng *rand.Rand, count int) [][]geometry.Vector {
	var hist [][]bvc.Vector
	for _, p := range res.Processes {
		if !p.Byzantine {
			hist = append(hist, p.History)
		}
	}
	if len(hist) < sc.k {
		return nil
	}
	rounds := len(hist[0])
	for _, h := range hist {
		rounds = min(rounds, len(h))
	}
	var out [][]geometry.Vector
	for c := 0; c < count && rounds > 0; c++ {
		t := rng.Intn(rounds)
		set := make([]geometry.Vector, 0, sc.k)
		for _, p := range rng.Perm(len(hist))[:sc.k] {
			set = append(set, geometry.Vector(hist[p][t]).Clone())
		}
		out = append(out, set)
	}
	return out
}
