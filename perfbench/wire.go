package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/wire"
)

// replayWire measures the wire codec offline over the byte streams the
// counting transport captured: every frame is parsed (ParseFrame, plus
// DecodeConsensus for consensus frames) and every consensus frame is
// re-encoded with AppendConsensus, which must reproduce the captured
// bytes exactly (a mismatch is a failed operation). It returns the median
// ns per frame of each direction over repeated passes, and the share of
// frame bytes spent on the length prefix and fixed header.
func replayWire(streams [][]byte, budget time.Duration, t *tally) (decodeNs, encodeNs, headerShare float64) {
	var frames [][]byte
	var total int
	for _, s := range streams {
		for len(s) >= 4 {
			size := int(binary.BigEndian.Uint32(s))
			if size < wire.FrameHeaderLen || 4+size > len(s) {
				break // the capture ended mid-frame
			}
			frames = append(frames, s[4:4+size])
			total += 4 + size
			s = s[4+size:]
		}
	}
	if len(frames) == 0 {
		return 0, 0, 0
	}
	headerShare = float64(len(frames)*(4+wire.FrameHeaderLen)) / float64(total)

	// One checked pass decodes every frame and round-trips the consensus
	// frames through the encoder.
	type decoded struct {
		instance uint64
		msg      wire.ConsensusMsg
		raw      []byte
	}
	var msgs []decoded
	for i, fr := range frames {
		h, body, err := wire.ParseFrame(fr)
		if err == nil && h.Kind == wire.FrameConsensus {
			var m wire.ConsensusMsg
			if err = wire.DecodeConsensus(&m, body); err == nil {
				msgs = append(msgs, decoded{h.Instance, m, fr})
				if enc := wire.AppendConsensus(nil, h.Instance, &m); !bytes.Equal(enc[4:], fr) {
					err = fmt.Errorf("re-encoded frame differs from the captured bytes")
				}
			}
		}
		if err != nil {
			t.record(fmt.Errorf("wire replay frame %d: %w", i, err))
		}
	}
	t.record(nil)

	var decodeRuns, encodeRuns []float64
	var reuse wire.ConsensusMsg
	buf := make([]byte, 0, 256)
	start := time.Now()
	for pass := 0; pass < 3 || (time.Since(start) < budget && pass < 1000); pass++ {
		t0 := time.Now()
		for _, fr := range frames {
			if h, body, err := wire.ParseFrame(fr); err == nil && h.Kind == wire.FrameConsensus {
				_ = wire.DecodeConsensus(&reuse, body) // checked in the pass above
			}
		}
		decodeRuns = append(decodeRuns, float64(time.Since(t0).Nanoseconds())/float64(len(frames)))
		if len(msgs) == 0 {
			continue
		}
		t0 = time.Now()
		for i := range msgs {
			buf = wire.AppendConsensus(buf[:0], msgs[i].instance, &msgs[i].msg)
		}
		encodeRuns = append(encodeRuns, float64(time.Since(t0).Nanoseconds())/float64(len(msgs)))
	}
	return percentile(sortedCopy(decodeRuns), 0.5), percentile(sortedCopy(encodeRuns), 0.5), headerShare
}
