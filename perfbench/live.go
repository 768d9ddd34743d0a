package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro"
)

// The live mesh: 5 bvc.Service processes in this OS process, on loopback,
// running the §3.2 algorithm with n=5, f=1, d=2, ε=0.05 on a 4-round
// horizon (the cmd/bvcload shape), service defaults otherwise except the
// linger window.
const (
	liveN, liveF, liveD = 5, 1, 2
	liveEps             = 0.05
	liveRounds          = 4
	// liveLinger replaces the 30 s default linger (a decided instance
	// keeps serving lagging peers that long). Every instance of a 20 s run
	// would otherwise still be lingering at its end: the heap grows by
	// ~150 KB per instance for the whole run (1.2 GB after 20 s at
	// capacity) and the service slows as it grows. Two seconds is still
	// twenty times the p99 decision latency, and the lingering set
	// reaches its steady size within the warmup.
	liveLinger = 2 * time.Second

	// capacityWindow is the closed loop's in-flight instance count, the
	// throughput knee of this mesh on 2 CPUs.
	capacityWindow = 16
	// capacityWarmup instances (about two linger windows at capacity) run
	// before the capacity measurement.
	capacityWarmup = 1500
	// liveSetupRepeats is how many meshes a run builds; setup_s reports
	// the median. One set-up takes about 5 ms and single ones scatter
	// from 3.5 to 15 ms with whatever else the host runs, so a median of
	// few moves with the host (README.md, "Steadiness").
	liveSetupRepeats = 101
	// kernelInstances is how many traced instances feed the kernel replays.
	kernelInstances = 64
)

func liveConfig() bvc.Config {
	return bvc.Config{
		N: liveN, F: liveF, D: liveD,
		Epsilon:   liveEps,
		Lo:        []float64{0},
		Hi:        []float64{1},
		MaxRounds: liveRounds,
	}
}

// mesh is one established 5-process service mesh.
type mesh struct {
	svcs []*bvc.Service
}

// newMesh constructs the processes on ephemeral loopback ports and
// establishes the full mesh. A nil transport selects the real network.
func newMesh(seed int64, tr bvc.ServiceTransport) (*mesh, error) {
	m := &mesh{}
	tmpl := make([]string, liveN)
	for i := range tmpl {
		tmpl[i] = "127.0.0.1:0"
	}
	addrs := make([]string, liveN)
	for i := 0; i < liveN; i++ {
		cfg := bvc.ServiceConfig{Config: liveConfig(), ID: i, Addrs: tmpl, Seed: seed + int64(i), LingerTimeout: liveLinger}
		if tr != nil {
			cfg.Transport = tr
		}
		s, err := bvc.NewService(cfg)
		if err != nil {
			m.close()
			return nil, fmt.Errorf("process %d: %w", i, err)
		}
		m.svcs = append(m.svcs, s)
		addrs[i] = s.Addr()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	errs := make([]error, liveN)
	var wg sync.WaitGroup
	for i, s := range m.svcs {
		wg.Add(1)
		go func(i int, s *bvc.Service) {
			defer wg.Done()
			errs[i] = s.Establish(ctx, addrs)
		}(i, s)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		m.close()
		return nil, fmt.Errorf("establish: %w", err)
	}
	return m, nil
}

func (m *mesh) close() {
	for _, s := range m.svcs {
		_ = s.Close() // teardown; the run's verdict is already taken
	}
}

// finish drains every process and returns their final counters; a
// process that reports a background transport error is a failure.
func (m *mesh) finish(t *tally) []bvc.ServiceStats {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var stats []bvc.ServiceStats
	for i, s := range m.svcs {
		err := s.Drain(ctx)
		if err == nil {
			err = s.Err()
		}
		if err != nil {
			t.record(fmt.Errorf("process %d: %w", i, err))
		}
		stats = append(stats, s.Stats())
	}
	return stats
}

// setupMeshes builds the mesh liveSetupRepeats times, timing
// construction plus Establish, and keeps the last one. Each build starts
// after a forced GC, so it does not pay for the previous one's garbage.
func setupMeshes(seed int64) ([]time.Duration, *mesh, error) {
	var setups []time.Duration
	for r := 0; ; r++ {
		runtime.GC()
		t0 := time.Now()
		m, err := newMesh(seed, nil)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0))
		if r == liveSetupRepeats-1 {
			return setups, m, nil
		}
		m.close()
	}
}

// liveRun drives instances through one mesh and collects their results.
type liveRun struct {
	m      *mesh
	o      options
	rng    *rand.Rand // input generator; used by the launching goroutine only
	tracer *tracer    // nil when untraced
	wg     sync.WaitGroup

	mu        sync.Mutex
	tally     tally
	next      uint64 // last launched instance id
	ops       int    // measured, checked instances
	lat       []float64
	lastDone  time.Time
	genLag    []float64 // ms: launch − the instant its window slot was freed
	cpuStart  time.Duration
	checkTime time.Duration
	checked   int
	// Traced runs also keep the service-side timings and a few
	// instances' values for the kernel replays.
	propose, elapsed []float64
	values           [][][]float64
}

func newLiveRun(m *mesh, o options, tr *tracer) *liveRun {
	return &liveRun{m: m, o: o, rng: rand.New(rand.NewSource(o.seed)), tracer: tr}
}

// launch proposes the next instance on every process and starts its
// collector, which times the instance from this launch and gives its
// window slot back, stamped with the instant every process had decided.
func (r *liveRun) launch(measured bool, slot chan time.Time) {
	origin := time.Now()
	r.next++
	id := r.next
	inputs := make([][]float64, liveN)
	for i := range inputs {
		inputs[i] = []float64{r.rng.Float64(), r.rng.Float64()}
	}
	chans := make([]<-chan bvc.ServiceResult, liveN)
	starts := make([]time.Time, liveN)
	ends := make([]time.Time, liveN)
	var perr error
	for i, s := range r.m.svcs {
		starts[i] = time.Now()
		ch, err := s.Propose(id, inputs[i])
		ends[i] = time.Now()
		if err != nil {
			perr = fmt.Errorf("instance %d: propose on process %d: %w", id, i, err)
			break
		}
		chans[i] = ch
	}
	r.wg.Add(1)
	go r.collect(id, origin, measured, slot, inputs, chans, starts, ends, perr)
}

// collect waits for every process's result, checks the decisions and
// records the instance.
func (r *liveRun) collect(id uint64, origin time.Time, measured bool, slot chan time.Time,
	inputs [][]float64, chans []<-chan bvc.ServiceResult, starts, ends []time.Time, err error) {
	defer r.wg.Done()
	decisions := make([][]float64, 0, liveN)
	elapsed := make([]time.Duration, liveN)
	for i, ch := range chans {
		if ch == nil {
			continue
		}
		res := <-ch
		if res.Err != nil {
			err = errors.Join(err, fmt.Errorf("instance %d on process %d: %w", id, i, res.Err))
			continue
		}
		decisions = append(decisions, res.Decision)
		elapsed[i] = res.Elapsed
	}
	done := time.Now()
	slot <- done // never blocks: the window holds one slot per instance in flight
	c0 := time.Now()
	if err == nil {
		if r.o.mutate != nil {
			r.o.mutate(int(id), decisions)
		}
		if cerr := checkDecisions(inputs, decisions, liveEps); cerr != nil {
			err = fmt.Errorf("instance %d: %w", id, cerr)
		}
	}
	check := time.Since(c0)

	r.mu.Lock()
	defer r.mu.Unlock()
	r.tally.record(err)
	r.checkTime += check
	r.checked++
	if measured && err == nil {
		r.ops++
		r.lat = append(r.lat, ms(done.Sub(origin)))
		if done.After(r.lastDone) {
			r.lastDone = done
		}
	}
	if r.tracer == nil || err != nil {
		return
	}
	t := r.tracer
	spans := []span{{Trace: id, ID: 1, Name: "instance", Start: t.at(origin), End: t.at(done)}}
	for i := range chans {
		decided := starts[i].Add(elapsed[i])
		if decided.Before(ends[i]) {
			decided = ends[i]
		}
		spans = append(spans,
			span{Trace: id, ID: uint32(2 + 2*i), Parent: 1, Name: fmt.Sprintf("propose.p%d", i), Start: t.at(starts[i]), End: t.at(ends[i])},
			span{Trace: id, ID: uint32(3 + 2*i), Parent: uint32(2 + 2*i), Name: fmt.Sprintf("decide.p%d", i), Start: t.at(ends[i]), End: t.at(decided)})
		r.propose = append(r.propose, us(ends[i].Sub(starts[i])))
		r.elapsed = append(r.elapsed, ms(elapsed[i]))
	}
	t.keep(spans...)
	if len(r.values) < kernelInstances {
		r.values = append(r.values, append(append([][]float64(nil), inputs...), decisions...))
	}
}

// closedLoop keeps capacityWindow instances in flight: capacityWarmup
// unmeasured instances, then measured ones until the deadline. The free
// window slots are tokens stamped with the instant they were freed, so
// the generator's lag is how long a freed slot waited for the next launch.
func (r *liveRun) closedLoop(d time.Duration) (start time.Time) {
	slots := make(chan time.Time, capacityWindow)
	for i := 0; i < capacityWindow; i++ {
		slots <- time.Now()
	}
	for i := 0; i < capacityWarmup; i++ {
		<-slots
		r.launch(false, slots)
	}
	start, r.cpuStart = time.Now(), cpuTime()
	for time.Now().Before(start.Add(d)) {
		freed := <-slots
		lag := ms(time.Since(freed))
		r.mu.Lock()
		r.genLag = append(r.genLag, lag)
		r.mu.Unlock()
		r.launch(true, slots)
	}
	return start
}

// drive runs the closed loop for d and waits for every instance. The CPU
// time is the process's from the first measured launch on.
func (r *liveRun) drive(d time.Duration) measure {
	start := r.closedLoop(d)
	r.wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	return measure{ops: r.ops, wall: r.lastDone.Sub(start), cpu: cpuTime() - r.cpuStart, lat: r.lat}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runLive is the untraced run of the live workload.
func runLive(o options) (*outcome, error) {
	if o.trace {
		return traceLive(o)
	}
	setups, m, err := setupMeshes(o.seed)
	if err != nil {
		return nil, err
	}
	defer m.close()
	r := newLiveRun(m, o, nil)
	meas := r.drive(seconds(o.seconds))
	out := &outcome{}
	m.finish(&r.tally)
	out.tally = r.tally
	out.metrics = endToEndMetrics(meas, setups)
	out.notes = append(out.notes, fmt.Sprintf("%d measured instances (%d latency samples), %d attempted in all",
		meas.ops, len(meas.lat), out.tally.attempted))
	return out, nil
}
