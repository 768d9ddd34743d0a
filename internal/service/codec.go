package service

import (
	"fmt"

	"repro/internal/aad"
	"repro/internal/broadcast"
	"repro/internal/geometry"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The service path speaks the binary v2 frame layout (internal/wire,
// docs/WIRE_FORMAT.md): frames are instance-multiplexed and the codec
// below flattens the AAD exchange messages into wire.ConsensusMsg, which
// encodes to a fixed layout with no reflection and no per-frame type
// preamble.

// toWire flattens an AAD message into the wire form. The returned message
// aliases m's vector — encode it before m is mutated (senders encode
// immediately, and protocol values are immutable by convention).
func toWire(m aad.Msg, w *wire.ConsensusMsg) error {
	switch m.Kind {
	case aad.KindRBC:
		w.Kind = wire.ConsensusRBC
		w.Phase = uint8(m.RBC.Phase)
		w.Origin = uint32(m.RBC.Origin)
		w.Round = uint32(m.RBC.Tag)
		w.Value = m.RBC.Value
	case aad.KindReport:
		w.Kind = wire.ConsensusReport
		w.Phase = 0
		w.Origin = uint32(m.Report.Origin)
		w.Round = uint32(m.Report.Round)
		w.Value = nil
	default:
		return fmt.Errorf("service: unknown aad message kind %d", m.Kind)
	}
	return nil
}

// fromWire rebuilds the AAD message from its wire form. The vector is
// copied onto fresh storage: the RBC state machine retains delivered
// values, while w.Value aliases the reader's reusable decode buffer.
func fromWire(w *wire.ConsensusMsg) (aad.Msg, error) {
	switch w.Kind {
	case wire.ConsensusRBC:
		val := make(geometry.Vector, len(w.Value))
		copy(val, w.Value)
		return aad.Msg{Kind: aad.KindRBC, RBC: broadcast.RBCMsg{
			Phase:  broadcast.RBCPhase(w.Phase),
			Origin: sim.ProcID(w.Origin),
			Tag:    int(w.Round),
			Value:  val,
		}}, nil
	case wire.ConsensusReport:
		return aad.Msg{Kind: aad.KindReport, Report: aad.ReportMsg{
			Round:  int(w.Round),
			Origin: sim.ProcID(w.Origin),
		}}, nil
	default:
		return aad.Msg{}, fmt.Errorf("service: unknown consensus wire kind %d", w.Kind)
	}
}
