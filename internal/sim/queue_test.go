package sim

import (
	"math/rand"
	"testing"
	"time"
)

// refQueue is the reference the link-merge queue must agree with: every
// pending event, popped by a linear scan for the least (time, sequence).
type refQueue []event

func (r *refQueue) pop() event {
	h := *r
	best := 0
	for i, ev := range h {
		if ev.at < h[best].at || (ev.at == h[best].at && ev.seq < h[best].seq) {
			best = i
		}
	}
	ev := h[best]
	h[best] = h[len(h)-1]
	*r = h[:len(h)-1]
	return ev
}

// checkPop pops both queues and fails unless they agree, including
// peekAt's promise about the popped event.
func checkPop(t *testing.T, q *eventQueue, ref *refQueue) {
	t.Helper()
	if q.Len() != len(*ref) {
		t.Fatalf("Len %d, reference holds %d", q.Len(), len(*ref))
	}
	at := q.peekAt()
	got, want := q.pop(), ref.pop()
	if got.at != at {
		t.Fatalf("peekAt %v, popped event at %v", at, got.at)
	}
	if got.at != want.at || got.seq != want.seq || got.from != want.from || got.to != want.to || got.msg != want.msg {
		t.Fatalf("popped %+v, reference %+v", got, want)
	}
}

// TestEventQueueMatchesSortedReference drives the queue with random,
// per-link-monotone pushes interleaved with pops and checks every pop
// against the reference. Bursty phases on few links make links drain and
// refill and rings grow after their contents wrapped; ties in time across
// links exercise the sequence tie-break.
func TestEventQueueMatchesSortedReference(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		rng := rand.New(rand.NewSource(int64(n)))
		q := newEventQueue(n)
		var ref refQueue
		var seq uint64
		now := time.Duration(0)
		for step := 0; step < 20000; step++ {
			// Alternate push-heavy and pop-heavy phases so the pending
			// count swings between empty and a few hundred.
			pushBias := 0.7
			if (step/500)%2 == 1 {
				pushBias = 0.3
			}
			if q.Len() > 0 && rng.Float64() >= pushBias {
				at := q.peekAt()
				checkPop(t, &q, &ref)
				now = at
				continue
			}
			from, to := ProcID(rng.Intn(n)), ProcID(rng.Intn(n))
			if rng.Intn(4) == 0 {
				from, to = 0, ProcID(n-1) // one hot link
			}
			at := now + time.Duration(rng.Intn(4))*time.Microsecond
			if floor := q.floor(from, to) + fifoNudge; at < floor {
				at = floor
			}
			seq++
			ev := event{at: at, seq: seq, from: from, to: to, msg: int(seq)}
			q.push(ev)
			ref = append(ref, ev)
		}
		for q.Len() > 0 {
			checkPop(t, &q, &ref)
		}
		if len(ref) != 0 || len(q.heap) != 0 {
			t.Fatalf("n=%d: drained queue left %d reference events, %d heap keys", n, len(ref), len(q.heap))
		}
	}
}

// TestEventQueueGrowsWrappedRing fills one link's ring so its contents wrap
// around the end of the buffer, then pushes past capacity: the grown ring
// must keep the FIFO order, and the queue must keep merging other links'
// events around it.
func TestEventQueueGrowsWrappedRing(t *testing.T) {
	q := newEventQueue(2)
	var ref refQueue
	var seq uint64
	push := func(from, to ProcID, at time.Duration) {
		seq++
		ev := event{at: at, seq: seq, from: from, to: to, msg: int(seq)}
		q.push(ev)
		ref = append(ref, ev)
	}
	at := time.Duration(0)
	next := func() time.Duration { at += time.Millisecond; return at }
	for i := 0; i < minLinkRing-2; i++ {
		push(0, 1, next())
	}
	for i := 0; i < minLinkRing/2; i++ {
		checkPop(t, &q, &ref)
	}
	for q.links[1].len < minLinkRing {
		push(0, 1, next())
		push(1, 0, at) // a tie in time on another link
	}
	l := &q.links[1]
	if l.head+l.len <= len(l.ring) || len(l.ring) != minLinkRing {
		t.Fatalf("ring did not wrap before growing: head %d, len %d, cap %d", l.head, l.len, len(l.ring))
	}
	push(0, 1, next())
	if len(l.ring) != 2*minLinkRing {
		t.Fatalf("ring cap %d after overflow, want %d", len(l.ring), 2*minLinkRing)
	}
	for q.Len() > 0 {
		checkPop(t, &q, &ref)
	}
}

// scriptedDelay returns its delays in order, then zero.
type scriptedDelay struct{ delays []time.Duration }

func (s *scriptedDelay) Delay(_, _ ProcID, _ time.Duration, _ *rand.Rand) time.Duration {
	if len(s.delays) == 0 {
		return 0
	}
	d := s.delays[0]
	s.delays = s.delays[1:]
	return d
}

// floorNode is process 0 of TestEngineFIFOFloorSurvivesDrainedLink: at
// init it sends "a" to process 1 and a wake-up to itself, both arriving at
// 5ms; on the wake-up it sends "b" to process 1 with zero delay.
type floorNode struct{}

func (floorNode) Init(api API) {
	api.Send(1, "a")
	api.Send(0, "wake")
}

func (floorNode) OnMessage(api API, _ ProcID, msg Message) {
	if msg == "wake" {
		api.Send(1, "b")
	}
}

type sinkNode struct{}

func (sinkNode) Init(API) {}

func (sinkNode) OnMessage(API, ProcID, Message) {}

// TestEngineFIFOFloorSurvivesDrainedLink: the link 0→1 carries "a" at 5ms
// and is empty when "b" is sent at that same instant with zero delay. The
// link's FIFO floor outlives its pending events, so "b" still arrives
// strictly after "a", one fifoNudge later.
func TestEngineFIFOFloorSurvivesDrainedLink(t *testing.T) {
	var trace []Delivery
	eng, err := NewEngine(Config{
		N: 2, Seed: 1,
		Delay:    &scriptedDelay{delays: []time.Duration{5 * time.Millisecond, 5 * time.Millisecond}},
		Observer: func(ev Delivery) { trace = append(trace, ev) },
	}, []Node{floorNode{}, sinkNode{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(trace) != 3 {
		t.Fatalf("%d deliveries, want 3: %+v", len(trace), trace)
	}
	a, wake, b := trace[0], trace[1], trace[2]
	if a.Msg != "a" || wake.Msg != "wake" || b.Msg != "b" {
		t.Fatalf("delivery order %v, %v, %v; want a, wake, b", a.Msg, wake.Msg, b.Msg)
	}
	if a.At != 5*time.Millisecond || wake.At != a.At {
		t.Fatalf("a at %v, wake at %v; want both at 5ms", a.At, wake.At)
	}
	if want := a.At + fifoNudge; b.At != want {
		t.Fatalf("b sent on the drained link arrives at %v, want the floor %v", b.At, want)
	}
}

// BenchmarkEventQueue measures one pop plus one push in steady state at
// sim-approx's shape: n = 15 (225 links) with ~6,000 events pending, each
// push drawing an exponential delay (mean 3ms) on a random link.
func BenchmarkEventQueue(b *testing.B) {
	const (
		n       = 15
		pending = 6000
		draws   = 1 << 14
	)
	rng := rand.New(rand.NewSource(1))
	links := make([][2]ProcID, draws)
	delays := make([]time.Duration, draws)
	for i := range links {
		links[i] = [2]ProcID{ProcID(rng.Intn(n)), ProcID(rng.Intn(n))}
		delays[i] = time.Duration(rng.ExpFloat64() * float64(3*time.Millisecond))
	}
	q := newEventQueue(n)
	var seq uint64
	msg := Message(&struct{ round, origin int }{})
	push := func(now time.Duration) {
		i := int(seq % draws)
		from, to := links[i][0], links[i][1]
		at := now + delays[i]
		if floor := q.floor(from, to) + fifoNudge; at < floor {
			at = floor
		}
		seq++
		q.push(event{at: at, seq: seq, from: from, to: to, msg: msg})
	}
	for q.Len() < pending {
		push(0)
	}
	b.ReportAllocs()
	for b.Loop() {
		push(q.pop().at)
	}
}
