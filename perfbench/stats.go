package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
)

// percentile returns the nearest-rank q-quantile of ascending values (0
// for an empty sample).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// sortedCopy returns values sorted ascending, leaving the input alone.
func sortedCopy(values []float64) []float64 {
	out := append([]float64(nil), values...)
	sort.Float64s(out)
	return out
}

func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// perOp divides a total by an operation count (0 when there were none).
func perOp(total float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}

// ratio is a ÷ b, or 0 when b is 0 (nothing was measured).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set in MiB: VmHWM, which
// starts afresh at exec, falling back to getrusage's maxrss.
func maxRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// rtSnapshot is one reading of the Go runtime counters the goruntime
// layer reports, plus the Γ-engine counters the core layer reports.
type rtSnapshot struct {
	allocObjects, allocBytes uint64
	gcCPU, totalCPU          float64
	sched                    *metrics.Float64Histogram
	gamma                    bvc.GammaCounters
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() rtSnapshot {
	samples := make([]metrics.Sample, len(rtNames))
	for i, name := range rtNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	var s rtSnapshot
	if samples[0].Value.Kind() == metrics.KindUint64 {
		s.allocObjects = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = samples[1].Value.Uint64()
	}
	if samples[2].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[2].Value.Float64()
	}
	if samples[3].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = samples[3].Value.Float64()
	}
	if samples[4].Value.Kind() == metrics.KindFloat64Histogram {
		s.sched = samples[4].Value.Float64Histogram()
	}
	s.gamma = bvc.EngineGammaCounters()
	return s
}

// runtimeLayers fills the goruntime.* and core.gamma_* metrics from the
// counter deltas between two snapshots spanning ops operations.
func runtimeLayers(dst map[string]float64, before, after rtSnapshot, ops int) {
	dst["goruntime.allocs_per_op"] = perOp(float64(after.allocObjects-before.allocObjects), ops)
	dst["goruntime.alloc_mb_per_op"] = perOp(float64(after.allocBytes-before.allocBytes)/(1<<20), ops)
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		dst["goruntime.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / cpu
	}
	dst["goruntime.sched_wait_us_p99"] = histDeltaQuantile(before.sched, after.sched, 0.99) * 1e6

	g := after.gamma.Sub(before.gamma)
	dst["core.gamma_solves_per_op"] = perOp(float64(g.Solves), ops)
	dst["core.gamma_cache_hits_per_op"] = perOp(float64(g.CacheHits), ops)
	dst["core.gamma_prefix_hits_per_op"] = perOp(float64(g.PrefixHits), ops)
	dst["core.gamma_round_hits_per_op"] = perOp(float64(g.RoundHits), ops)
	dst["core.gamma_reuse_rate"] = g.ReuseRate()
}

// histDeltaQuantile returns the q-quantile, in the histogram's unit, of
// the samples added between two readings of one runtime histogram. It
// reports a bucket's upper edge (its lower edge for the open last bucket).
func histDeltaQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	if before == nil || after == nil || len(before.Counts) != len(after.Counts) {
		return 0
	}
	delta := make([]uint64, len(after.Counts))
	var total uint64
	for i := range delta {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range delta {
		seen += c
		if seen >= rank {
			if hi := after.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return after.Buckets[i]
		}
	}
	return 0
}
