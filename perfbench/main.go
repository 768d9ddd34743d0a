// Command perfbench is the repository's benchmark. It drives one of two
// workloads — one against the live multi-tenant service on loopback TCP,
// one against the discrete-event simulator — for a fixed time, checks
// every operation's outputs, and prints one JSON result line.
//
//	perfbench --workload live-capacity --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a separate traced run, and the spans
// are written to --trace-out. README.md documents the workloads, every
// metric and how to read the spans.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string

	// mutate, when set, is applied to an operation's decisions before
	// the correctness check. Only the checker's mutation tests set it.
	mutate func(op int, decisions [][]float64)
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options) (*outcome, error){
	"live-capacity": runLive,
	"sim-approx":    runSim,
}

func realMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	out, err := workloads[o.workload](o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, e := range out.tally.errs {
		fmt.Fprintln(stderr, "perfbench: failed:", e)
	}
	for _, line := range out.notes {
		fmt.Fprintln(stderr, "perfbench:", line)
	}
	line, err := out.resultLine(o.trace)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "span output file of a traced run (default .bench_build/perfbench/trace-<workload>-s<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown --workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if !(o.seconds > 0) || o.seconds > 120 {
		return o, fmt.Errorf("--seconds %g out of range (0, 120]", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	o.trace = trace == 1
	if o.traceOut == "" {
		o.traceOut = fmt.Sprintf(".bench_build/perfbench/trace-%s-s%d.jsonl", o.workload, o.seed)
	}
	return o, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// tally counts checked operations and their failures. Every failure —
// an operation error, a timeout, a validity or agreement violation, a
// verify-mode miss, a traced run that is not bit-identical — is counted,
// never dropped.
type tally struct {
	attempted, failed int
	errs              []string // first few failures, for stderr
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

// failRatio is failed ÷ attempted.
func (t *tally) failRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// outcome is one workload run: its tally and the metric values it
// measured, by name.
type outcome struct {
	tally   tally
	metrics map[string]float64
	notes   []string // human-readable context printed to stderr
}

// resultLine renders the final JSON line: every end-to-end metric for an
// untraced run, every per-layer metric for a traced one.
func (o *outcome) resultLine(traced bool) ([]byte, error) {
	defs := endToEnd
	if traced {
		o.metrics["bench.fail_ratio"] = o.tally.failRatio()
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	byName := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.Name)
		}
		byName[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	attempted := o.tally.attempted
	if attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.tally.failed == 0, attempted, o.tally.failed, byName})
}

// measure is the measured window of an untraced run.
type measure struct {
	ops  int           // checked, successful operations in the window
	wall time.Duration // window wall time
	cpu  time.Duration // process user+sys CPU attributed to the window
	lat  []float64     // per-operation latency, ms
}

// endToEndMetrics turns a measured window plus the set-up samples into
// the end-to-end metric values.
func endToEndMetrics(m measure, setups []time.Duration) map[string]float64 {
	lat := sortedCopy(m.lat)
	return map[string]float64{
		"ops_per_s":      float64(m.ops) / max(m.wall.Seconds(), 1e-9),
		"latency_p50_ms": percentile(lat, 0.50),
		"latency_p99_ms": percentile(lat, 0.99),
		"cpu_ms_per_op":  perOp(ms(m.cpu), m.ops),
		"setup_s":        medianDuration(setups).Seconds(),
		"max_rss_mb":     maxRSSMB(),
	}
}
