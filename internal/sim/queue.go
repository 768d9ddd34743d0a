package sim

import "time"

// eventQueue holds the pending deliveries as a merge of the n² directed
// links' FIFO streams. Link from*n+to keeps its pending events in a ring
// buffer in arrival order, together with the latest arrival ever scheduled
// on it (the link's FIFO floor). A 4-ary min-heap holds one pointer-free
// key per non-empty link — the (time, sequence) of the link's head event —
// so it never exceeds n² entries however many messages are in flight, and
// reordering it never moves a Message.
//
// The pop order is the strict (time, sequence) order of all pending
// events, exactly as a single global priority queue would produce: each
// link's arrivals strictly increase (push requires at > the link's floor,
// which Engine.send guarantees by raising every arrival at least
// fifoNudge above it), so a link's head is its minimum, and sequence
// numbers are unique, so the minimum over the heads is the global minimum
// and the order is total.
type eventQueue struct {
	n     int
	links []linkFIFO // by from*n+to
	heap  []linkKey  // one entry per non-empty link
	size  int        // pending events over all links
}

// linkFIFO is one directed link's pending events and FIFO floor.
type linkFIFO struct {
	ring     []linkSlot // capacity 0 or a power of two
	head     int        // ring index of the oldest pending event
	len      int        // pending events
	from, to ProcID
	// last is the latest arrival ever scheduled on the link (0 before the
	// first send); every later arrival must exceed it.
	last time.Duration
}

// linkSlot is a pending event without its link's endpoints.
type linkSlot struct {
	at  time.Duration
	seq uint64
	msg Message
}

// linkKey orders the links in the heap by their head event.
type linkKey struct {
	at   time.Duration
	seq  uint64
	link int
}

// minLinkRing is a link ring's first capacity.
const minLinkRing = 8

func newEventQueue(n int) eventQueue {
	q := eventQueue{n: n, links: make([]linkFIFO, n*n)}
	for i := range q.links {
		q.links[i].from, q.links[i].to = ProcID(i/n), ProcID(i%n)
	}
	return q
}

// Len is the number of pending events.
func (q *eventQueue) Len() int { return q.size }

// floor is the FIFO floor of the link from → to: the latest arrival
// scheduled on it so far.
func (q *eventQueue) floor(from, to ProcID) time.Duration {
	return q.links[int(from)*q.n+int(to)].last
}

// peekAt is the arrival time of the next event; the queue must be
// non-empty.
func (q *eventQueue) peekAt() time.Duration { return q.heap[0].at }

// push enqueues ev on its link; ev.at must exceed the link's floor.
func (q *eventQueue) push(ev event) {
	id := int(ev.from)*q.n + int(ev.to)
	l := &q.links[id]
	if ev.at <= l.last {
		panic("sim: event arrival not above its link's FIFO floor")
	}
	l.last = ev.at
	if l.len == len(l.ring) {
		l.grow()
	}
	s := &l.ring[(l.head+l.len)&(len(l.ring)-1)]
	s.at, s.seq, s.msg = ev.at, ev.seq, ev.msg
	l.len++
	q.size++
	if l.len == 1 {
		q.heap = append(q.heap, linkKey{at: ev.at, seq: ev.seq, link: id})
		q.up(len(q.heap) - 1)
	}
}

// pop removes and returns the next event in (time, sequence) order; the
// queue must be non-empty.
func (q *eventQueue) pop() event {
	id := q.heap[0].link
	l := &q.links[id]
	s := &l.ring[l.head]
	ev := event{at: s.at, seq: s.seq, from: l.from, to: l.to, msg: s.msg}
	s.msg = nil // release the Message reference
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.len--
	q.size--
	if l.len > 0 {
		next := &l.ring[l.head]
		q.heap[0] = linkKey{at: next.at, seq: next.seq, link: id}
	} else {
		last := len(q.heap) - 1
		q.heap[0] = q.heap[last]
		q.heap = q.heap[:last]
	}
	q.down(0)
	return ev
}

// grow doubles the ring, unwrapping its pending events to the front.
func (l *linkFIFO) grow() {
	ring := make([]linkSlot, max(2*len(l.ring), minLinkRing))
	n := copy(ring, l.ring[l.head:])
	copy(ring[n:], l.ring[:l.head])
	l.ring, l.head = ring, 0
}

// before is the strict (time, sequence) order on heap keys.
func (a linkKey) before(b linkKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) up(i int) {
	h := q.heap
	k := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !k.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
}

func (q *eventQueue) down(i int) {
	h := q.heap
	if i >= len(h) {
		return
	}
	k := h[i]
	for {
		first := 4*i + 1
		if first >= len(h) {
			break
		}
		best := first
		for c := first + 1; c < min(first+4, len(h)); c++ {
			if h[c].before(h[best]) {
				best = c
			}
		}
		if !h[best].before(k) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = k
}
