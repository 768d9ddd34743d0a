package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/wire"
)

// benchResult is the benchmark's final output line.
type benchResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func runBench(t *testing.T, args ...string) benchResult {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("perfbench %v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r benchResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, stdout.String())
	}
	return r
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metric
// names, units and directions in step with the program's.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range b.Workloads {
		ws = append(ws, w.Name)
	}
	sort.Strings(ws)
	if !reflect.DeepEqual(ws, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", ws, workloadNames())
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v\nprogram %v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v\nprogram %v", b.PerLayer, perLayer)
	}
}

// TestCheckerMutation feeds the live checker a decision perturbed
// outside the hull and a pair of disagreeing decisions; both must fail
// and raise the fail ratio.
func TestCheckerMutation(t *testing.T) {
	inputs := [][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0.5, 0.5}}
	good := [][]float64{{0.4, 0.4}, {0.4, 0.4}, {0.4, 0.4}}
	if err := checkDecisions(inputs, good, liveEps); err != nil {
		t.Fatalf("agreeing valid decisions rejected: %v", err)
	}
	outside := [][]float64{{0.4, 0.4}, {0.4, 1.2}, {0.4, 0.4}}
	apart := [][]float64{{0.4, 0.4}, {0.4, 0.4 + 2*liveEps}, {0.4, 0.4}}
	for name, decs := range map[string][][]float64{"outside the hull": outside, "disagreeing": apart} {
		var tl tally
		tl.record(nil)
		tl.record(checkDecisions(inputs, decs, liveEps))
		if tl.failed != 1 || tl.failRatio() != 0.5 {
			t.Errorf("%s: failed %d of %d, fail ratio %g; want 1 of 2", name, tl.failed, tl.attempted, tl.failRatio())
		}
	}
}

// TestLiveMutationRaisesFailRatio runs the live workload with one
// instance's decision moved outside the hull and another's pair of
// decisions pushed apart: both are counted as failures (the first is a
// warmup instance; warmup errors still count).
func TestLiveMutationRaisesFailRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("live mesh run")
	}
	o := options{workload: "live-capacity", seed: 3, seconds: 0.5, mutate: func(op int, decs [][]float64) {
		switch op {
		case 5:
			decs[0] = []float64{2, 2}
		case capacityWarmup + 10:
			decs[1] = []float64{decs[0][0] + 2*liveEps, decs[0][1]}
		}
	}}
	out, err := runLive(o)
	if err != nil {
		t.Fatal(err)
	}
	if out.tally.failed != 2 || out.tally.failRatio() <= 0 {
		t.Fatalf("failed %d of %d (%v); want the 2 mutated instances", out.tally.failed, out.tally.attempted, out.tally.errs)
	}
	line, err := out.resultLine(false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(line, []byte(`"correct":false`)) {
		t.Fatalf("result %s not marked incorrect", line)
	}
}

// TestSimMutationRaisesFailRatio moves one sim run's decision outside the
// hull; the verify mode must count the run as failed.
func TestSimMutationRaisesFailRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated runs")
	}
	o := options{workload: "sim-approx", seed: 3, seconds: 0.2, mutate: func(op int, decs [][]float64) {
		if op == 1 {
			decs[0][0] = 5
		}
	}}
	out, err := runSim(o)
	if err != nil {
		t.Fatal(err)
	}
	if out.tally.failed != 1 || out.tally.failRatio() <= 0 {
		t.Fatalf("failed %d of %d (%v); want the mutated run", out.tally.failed, out.tally.attempted, out.tally.errs)
	}
}

// TestSmoke runs every workload briefly, untraced and traced: each must
// be correct and report exactly its metric set.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs of every workload")
	}
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			r := runBench(t, "--workload", w, "--seed", "2", "--seconds", "1", "--trace", trace,
				"--trace-out", filepath.Join(t.TempDir(), "spans.jsonl"))
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v failed %d of %d", w, trace, r.Correct, r.Failed, r.Attempted)
			}
			want := names(endToEnd)
			if trace == "1" {
				want = names(perLayer)
			}
			var got []string
			for name := range r.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace %s: metrics %v, want %v", w, trace, got, want)
			}
			if trace == "0" && r.Metrics["ops_per_s"].Value <= 0 {
				t.Errorf("%s: ops_per_s %v", w, r.Metrics["ops_per_s"].Value)
			}
		}
	}
}

// TestTracedSimBitIdentical checks that the assembled, traced stack
// decides bit-identically to bvc.SimulateApproxAsync on the same seed.
func TestTracedSimBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated runs")
	}
	sc, err := newSimCell()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		seed := runSeed(7, i)
		inputs := sc.inputs(seed)
		res, err := sc.simulate(inputs, seed)
		if err != nil {
			t.Fatal(err)
		}
		decs, root, spans, err := sc.simulateTraced(newTracer(), inputs, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(decs, res.Decisions()) {
			t.Errorf("seed %d: traced decisions differ", seed)
		}
		if len(spans) == 0 || root.dur() <= 0 {
			t.Errorf("seed %d: %d spans, root %v", seed, len(spans), root.dur())
		}
	}
}

// TestSimCellMatchesHarness checks that the benchmark builds the
// committed cell as the harness sweep runner does: on the cell's own seed
// both produce the same execution.
func TestSimCellMatchesHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated runs")
	}
	sc, err := newSimCell()
	if err != nil {
		t.Fatal(err)
	}
	want, err := harness.RunSweepCell(harness.E10RowCells[approxCell])
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.simulate(sc.inputs(sc.cell.Seed), sc.cell.Seed)
	if err != nil {
		t.Fatal(err)
	}
	spreads := historySpreads(res)
	if res.Messages != want.Messages || correctRounds(res) != want.Rounds || spreads[len(spreads)-1] != want.SpreadEnd {
		t.Errorf("messages %d rounds %d spread %g; harness %d %d %g",
			res.Messages, correctRounds(res), spreads[len(spreads)-1], want.Messages, want.Rounds, want.SpreadEnd)
	}
	if err := sc.verify(res); err != nil || !want.Verified {
		t.Errorf("verify %v, harness verified %v", err, want.Verified)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 50, End: 50}}
	if got := selfTime(parent, children); got != 100-30-10 {
		t.Fatalf("self time %d, want 60", got)
	}
}

func TestWireReplay(t *testing.T) {
	var stream []byte
	stream = wire.AppendHello(stream, 1, 0)
	for i := 0; i < 10; i++ {
		stream = wire.AppendConsensus(stream, uint64(i), &wire.ConsensusMsg{Kind: wire.ConsensusRBC, Phase: 1, Origin: 2, Round: 3, Value: []float64{0.25, float64(i)}})
		stream = wire.AppendConsensus(stream, uint64(i), &wire.ConsensusMsg{Kind: wire.ConsensusReport, Origin: 2, Round: 3})
	}
	var tl tally
	dec, enc, share := replayWire([][]byte{stream[:len(stream)-3]}, time.Millisecond, &tl)
	if tl.failed != 0 || dec <= 0 || enc <= 0 || share <= 0 || share >= 1 {
		t.Fatalf("replay: failed %d (%v), decode %g ns, encode %g ns, header share %g", tl.failed, tl.errs, dec, enc, share)
	}
}
