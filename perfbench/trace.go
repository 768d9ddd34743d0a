package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Spans of one instance
// or sim run share a trace id; Parent is the id of the span that caused
// this one (0 for a root). Times are nanoseconds since the tracer's epoch.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. It keeps at most
// maxKept spans (later ones are counted, not stored) so a long traced run
// stays small; the per-layer metrics are aggregated from every span
// regardless, as each instance or run completes.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	kept    []span
	dropped int
}

// maxKept bounds the spans written out per traced run.
const maxKept = 200_000

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// at converts a wall-clock instant to tracer time.
func (t *tracer) at(when time.Time) int64 { return int64(when.Sub(t.epoch)) }

// keep stores spans for the output file, up to maxKept in total.
func (t *tracer) keep(spans ...span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	room := maxKept - len(t.kept)
	if room < len(spans) {
		t.dropped += len(spans) - max(room, 0)
		spans = spans[:max(room, 0)]
	}
	t.kept = append(t.kept, spans...)
}

// write stores the kept spans as JSON lines, one span per line, after a
// header line naming the run.
func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	err = enc.Encode(map[string]any{"workload": workload, "seed": seed, "spans": len(t.kept), "dropped": t.dropped})
	for i := 0; err == nil && i < len(t.kept); i++ {
		err = enc.Encode(t.kept[i])
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return nil
}

// selfTime returns parent's duration minus the part of its interval that
// its children cover. Children may overlap each other (node callbacks of
// distinct processes run concurrently), so the covered part is the union
// of their intervals, clipped to the parent.
func selfTime(parent span, children []span) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curLo, curHi int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curLo, curHi, open = v[0], v[1], true
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			covered += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if open {
		covered += curHi - curLo
	}
	return parent.dur() - time.Duration(covered)
}
