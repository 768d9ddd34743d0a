package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geometry"
)

// countingTransport is the traced live run's bvc.ServiceTransport: the
// real network, with every established connection wrapped so each Write
// and Read is counted, timed and (up to a budget) its written bytes
// captured for the offline codec replay. It adds nothing to the service.
type countingTransport struct {
	tracer *tracer

	writes, writeBytes, writeNs, reads atomic.Int64
	conns                              atomic.Int64 // conns wrapped so far; numbers their traces

	mu       sync.Mutex
	captures []*bytesCapture
	budget   int // capture bytes left
}

// captureBudget bounds the bytes captured for the codec replay, and
// captureConn the share of one connection.
const (
	captureBudget = 4 << 20
	captureConn   = 512 << 10
	// maxConnSpans bounds the conn Write/Read spans kept per connection.
	maxConnSpans = 2000
)

type bytesCapture struct {
	mu    sync.Mutex
	buf   []byte
	limit int // bytes this capture may keep
}

func newCountingTransport(tr *tracer) *countingTransport {
	return &countingTransport{tracer: tr, budget: captureBudget}
}

func (t *countingTransport) Listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

func (t *countingTransport) Dial(ctx context.Context, _ int, addr string) (net.Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return t.wrap(conn), nil
}

func (t *countingTransport) Accepted(_ int, conn net.Conn) net.Conn { return t.wrap(conn) }

func (t *countingTransport) wrap(conn net.Conn) net.Conn {
	t.mu.Lock()
	c := &bytesCapture{limit: min(captureConn, t.budget)}
	t.budget -= c.limit
	t.captures = append(t.captures, c)
	t.mu.Unlock()
	return &countingConn{Conn: conn, t: t, capture: c, trace: 1<<32 + uint64(t.conns.Add(1))}
}

// streams returns the captured byte streams, one per connection.
func (t *countingTransport) streams() [][]byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out [][]byte
	for _, c := range t.captures {
		c.mu.Lock()
		out = append(out, append([]byte(nil), c.buf...))
		c.mu.Unlock()
	}
	return out
}

// countingConn counts, times and captures one connection's traffic. The
// service writes a connection from one goroutine and reads it from
// another, so the span counters are atomic.
type countingConn struct {
	net.Conn
	t       *countingTransport
	capture *bytesCapture
	trace   uint64
	spans   atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(b)
	t1 := time.Now()
	c.t.writes.Add(1)
	c.t.writeBytes.Add(int64(n))
	c.t.writeNs.Add(int64(t1.Sub(t0)))
	c.capture.mu.Lock()
	if room := c.capture.limit - len(c.capture.buf); room > 0 {
		c.capture.buf = append(c.capture.buf, b[:min(n, room)]...)
	}
	c.capture.mu.Unlock()
	c.span("conn.write", t0, t1)
	return n, err
}

func (c *countingConn) Read(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(b)
	c.t.reads.Add(1)
	c.span("conn.read", t0, time.Now())
	return n, err
}

func (c *countingConn) span(name string, t0, t1 time.Time) {
	n := c.spans.Add(1)
	if n > maxConnSpans {
		return
	}
	tr := c.t.tracer
	tr.keep(span{Trace: c.trace, ID: uint32(n), Name: name, Start: tr.at(t0), End: tr.at(t1)})
}

// statsSampler polls the processes' ServiceStats gauges while a traced
// phase runs, keeping their maxima.
type statsSampler struct {
	stop     chan struct{}
	done     chan struct{}
	queueMax int
	inflight int64
}

func sampleStats(m *mesh, every time.Duration) *statsSampler {
	s := &statsSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			for _, svc := range m.svcs {
				st := svc.Stats()
				s.queueMax = max(s.queueMax, st.QueueDepth)
				s.inflight = max(s.inflight, st.ActiveInstances)
			}
		}
	}()
	return s
}

// halt stops the sampler and waits for it to exit.
func (s *statsSampler) halt() {
	close(s.stop)
	<-s.done
}

// traceLive is the traced run of a live workload. An untraced phase on a
// plain mesh gives the runtime and Γ counters and the overhead baseline;
// a traced phase on a mesh built over the counting transport, with the
// same inputs, gives the service and span metrics; then the codec and
// the kernels are replayed offline on what the traced phase produced.
func traceLive(o options) (*outcome, error) {
	out := &outcome{metrics: zeroLayers()}
	phase := seconds(o.seconds * 0.4)

	m, err := newMesh(o.seed, nil)
	if err != nil {
		return nil, err
	}
	plain := newLiveRun(m, o, nil)
	before := readRuntime()
	base := plain.drive(phase)
	launched := int(plain.next)
	runtimeLayers(out.metrics, before, readRuntime(), launched)
	m.finish(&plain.tally)
	m.close()
	out.tally.add(plain.tally)

	tr := newTracer()
	ct := newCountingTransport(tr)
	m, err = newMesh(o.seed, ct)
	if err != nil {
		return nil, err
	}
	defer m.close()
	r := newLiveRun(m, o, tr)
	sampler := sampleStats(m, 10*time.Millisecond)
	meas := r.drive(phase)
	sampler.halt()
	stats := m.finish(&r.tally)
	out.tally.add(r.tally)
	inst := float64(r.next)

	var frames, bytesOut, retries int64
	for _, st := range stats {
		frames += st.FramesOut
		bytesOut += st.BytesOut
		retries += st.SlowPeerSheds + st.WriteDrops + st.WriteRetries + st.PendingDropped + st.Reconnects + st.ReadErrors
	}
	lm := out.metrics
	prop, el := sortedCopy(r.propose), sortedCopy(r.elapsed)
	lm["service.propose_us_p50"] = percentile(prop, 0.50)
	lm["service.propose_us_p99"] = percentile(prop, 0.99)
	lm["service.elapsed_ms_p50"] = percentile(el, 0.50)
	lm["service.frames_per_inst"] = float64(frames) / inst
	lm["service.bytes_per_inst"] = float64(bytesOut) / inst
	lm["service.conn_writes_per_inst"] = float64(ct.writes.Load()) / inst
	lm["service.conn_bytes_per_write"] = perOp(float64(ct.writeBytes.Load()), int(ct.writes.Load()))
	lm["service.conn_write_ms_per_inst"] = float64(ct.writeNs.Load()) / 1e6 / inst
	lm["service.conn_reads_per_inst"] = float64(ct.reads.Load()) / inst
	lm["service.queue_depth_max"] = float64(sampler.queueMax)
	lm["service.retries"] = float64(retries)
	lm["service.inflight_max"] = float64(sampler.inflight)
	lm["bench.check_us_per_op"] = perOp(us(r.checkTime), r.checked)
	lm["bench.gen_lag_ms_p99"] = percentile(sortedCopy(r.genLag), 0.99)
	// Time per instance, traced over untraced.
	lm["bench.trace_overhead"] = ratio(perOp(meas.wall.Seconds(), meas.ops), perOp(base.wall.Seconds(), base.ops))

	replay := seconds(o.seconds * 0.05)
	lm["wire.decode_ns_per_frame"], lm["wire.encode_ns_per_frame"], lm["wire.header_share"] = replayWire(ct.streams(), replay, &out.tally)
	for name, v := range replayKernels(liveSamples(r.values, rand.New(rand.NewSource(o.seed^0x6b65726e))), liveF, 2*replay, &out.tally) {
		lm[name] = v
	}
	out.notes = append(out.notes, fmt.Sprintf("traced %d instances (untraced baseline %d); spans in %s",
		r.next, launched, o.traceOut))
	return out, tr.write(o.traceOut, o.workload, o.seed)
}

// liveSamples draws the kernel multisets of the live workloads: Γ takes
// n−f = 4 of an instance's values per round. The service reports no
// per-round history, so each multiset is 4 of the instance's inputs (the
// first round) or 4 of its decisions (the converged last round).
func liveSamples(values [][][]float64, rng *rand.Rand) [][]geometry.Vector {
	var out [][]geometry.Vector
	for _, v := range values {
		round := v[:liveN]
		if rng.Intn(2) == 1 && len(v) >= 2*liveN {
			round = v[liveN:]
		}
		set := make([]geometry.Vector, 0, liveN-liveF)
		for _, p := range rng.Perm(liveN)[:liveN-liveF] {
			set = append(set, geometry.Vector(round[p]).Clone())
		}
		out = append(out, set)
	}
	return out
}
