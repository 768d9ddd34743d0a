package bvc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// goldenCell is one pinned asynchronous-approximate configuration.
type goldenCell struct {
	name  string
	cfg   Config
	byz   []Byzantine
	delay DelaySpec
	seeds []int64
	// want is the committed SHA-256 over every seed's execution digest.
	want string
}

// goldenCells are the pinned executions. approx-n15 is the e10/approx-n15
// sweep row (harness.E10RowCells[1] resolved: ε = 0.05, its 8-round γ
// horizon, one lure adversary, exponential delays); shiftedexp-n10 runs a
// smaller cell under the shifted-exponential model, whose positive minimum
// delay widens the parallel engine's lookahead batches, with an equivocator
// and a crashing process so suppressed deliveries occur.
func goldenCells() []goldenCell {
	ones := func(d int) Vector {
		v := make(Vector, d)
		for i := range v {
			v[i] = 1
		}
		return v
	}
	return []goldenCell{
		{
			name: "approx-n15",
			cfg: Config{N: 15, F: 2, D: 4, Epsilon: 0.05, Lo: []float64{0}, Hi: []float64{1},
				WitnessOptimization: true, MaxRounds: 8},
			byz:   []Byzantine{{ID: 14, Strategy: StrategyLure, Target: ones(4)}},
			delay: DelaySpec{Kind: DelayExponential, Mean: 3 * time.Millisecond},
			seeds: []int64{1, 2, 3},
			want:  "f27298ebd4c3dea683b1ffc98d563b84702b1fc56d622f2d67e2d5f4273065de",
		},
		{
			name: "shiftedexp-n10",
			cfg: Config{N: 10, F: 2, D: 2, Epsilon: 0.05, Lo: []float64{0}, Hi: []float64{1},
				WitnessOptimization: true, MaxRounds: 7},
			byz: []Byzantine{
				{ID: 8, Strategy: StrategyEquivocate, Target: Vector{0, 0}, Target2: ones(2)},
				{ID: 9, Strategy: StrategyCrash, CrashAfter: 25},
			},
			delay: DelaySpec{Kind: DelayShiftedExp, Mean: 3 * time.Millisecond},
			seeds: []int64{1, 2, 3},
			want:  "1d6635f39ed52d2ad8f4253b6a16da0d73b96ca28f8f887a06c1fa6fba28498c",
		},
	}
}

// goldenInputs draws a run's inputs uniformly in [0,1]^d, nil in the
// Byzantine slots.
func goldenInputs(c goldenCell, seed int64) []Vector {
	rng := rand.New(rand.NewSource(seed))
	in := make([]Vector, c.cfg.N)
	for i := range in {
		v := make(Vector, c.cfg.D)
		for j := range v {
			v[j] = rng.Float64()
		}
		in[i] = v
	}
	for _, b := range c.byz {
		in[b.ID] = nil
	}
	return in
}

type digest struct{ h hash.Hash }

func (d digest) u64(v uint64) { d.h.Write(binary.LittleEndian.AppendUint64(nil, v)) }

func (d digest) i64(v int64) { d.u64(uint64(v)) }

func (d digest) vec(v Vector) {
	d.i64(int64(len(v)))
	for _, x := range v {
		d.u64(math.Float64bits(x))
	}
}

// engineRun assembles the same node stack SimulateApproxAsync builds and
// runs it on an engine whose observer feeds every delivery into d, so the
// digest pins the delivery order and the full engine statistics, not only
// what the public Result reports.
func engineRun(t *testing.T, c goldenCell, inputs []Vector, opts SimOptions, d digest) sim.Stats {
	t.Helper()
	acfg, err := c.cfg.asyncConfig()
	if err != nil {
		t.Fatal(err)
	}
	acfg.Engine = opts.engine()
	byzMap, err := byzIndex(c.cfg, c.byz)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]sim.Node, c.cfg.N)
	impls := make([]*core.AsyncNode, c.cfg.N)
	rounds := 0
	for i := range nodes {
		if _, ok := byzMap[i]; ok {
			continue
		}
		nd, err := core.NewAsyncNode(acfg, sim.ProcID(i), toGeometry(inputs[i]))
		if err != nil {
			t.Fatal(err)
		}
		impls[i], nodes[i] = nd, nd
		rounds = max(rounds, nd.Rounds())
	}
	for _, b := range c.byz {
		if nodes[b.ID], err = asyncAdversary(c.cfg, acfg, b, rounds, inputs, impls); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := sim.NewEngine(sim.Config{
		N:           c.cfg.N,
		Seed:        opts.Seed,
		Delay:       opts.Delay.model(),
		NodeWorkers: opts.NodeWorkers,
		Observer: func(ev sim.Delivery) {
			d.i64(int64(ev.At))
			d.i64(int64(ev.From))
			d.i64(int64(ev.To))
			d.u64(ev.Seq)
		},
	}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestGoldenAsyncExecutions pins simulated executions across engine
// versions: decisions, per-process histories and message counts from
// SimulateApproxAsync, plus every delivery (time, link, sequence number)
// and the engine statistics of the same run, hashed against a committed
// digest, for serial and parallel node stepping. The determinism tests
// elsewhere compare engine settings with one another; this one catches an
// engine change that alters the execution for every setting at once, such
// as an event queue that pops in a different order.
func TestGoldenAsyncExecutions(t *testing.T) {
	for _, c := range goldenCells() {
		for _, nw := range []int{1, 0, 3} {
			h := sha256.New()
			d := digest{h}
			for _, seed := range c.seeds {
				inputs := goldenInputs(c, seed)
				opts := SimOptions{Seed: seed, Delay: c.delay, NodeWorkers: nw}
				res, err := SimulateApproxAsync(c.cfg, inputs, c.byz, opts)
				if err != nil {
					t.Fatalf("%s seed %d nodeworkers %d: %v", c.name, seed, nw, err)
				}
				d.i64(res.Messages)
				d.i64(int64(res.VirtualTime))
				for _, p := range res.Processes {
					d.i64(int64(p.Rounds))
					d.vec(p.Decision)
					d.i64(int64(len(p.History)))
					for _, v := range p.History {
						d.vec(v)
					}
				}
				st := engineRun(t, c, inputs, opts, d)
				if st.Sent != res.Messages || st.FinalTime != res.VirtualTime {
					t.Fatalf("%s seed %d: engine run sent %d by %v, SimulateApproxAsync %d by %v",
						c.name, seed, st.Sent, st.FinalTime, res.Messages, res.VirtualTime)
				}
				d.i64(st.Sent)
				d.i64(st.Delivered)
				d.i64(st.Suppressed)
				d.i64(int64(st.FinalTime))
				d.i64(int64(st.Halted))
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("%s nodeworkers %d: execution digest %s, want %s", c.name, nw, got, c.want)
			}
		}
	}
}
