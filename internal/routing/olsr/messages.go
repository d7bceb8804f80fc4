package olsr

import (
	"encoding/binary"
	"fmt"

	"siphoc/internal/netem"
	"siphoc/internal/wire"
)

// Message kinds carried in the routing envelope for ProtoOLSR.
const (
	KindHello uint8 = iota + 1
	KindTC
)

// KindName returns the RFC 3626 message name.
func KindName(k uint8) string {
	switch k {
	case KindHello:
		return "HELLO"
	case KindTC:
		return "TC"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}

// Link codes advertised for neighbours in HELLO messages (RFC 3626 link
// types, reduced to the two we need).
const (
	LinkAsym uint8 = 1 // heard, not confirmed bidirectional
	LinkSym  uint8 = 2 // confirmed bidirectional
)

// HelloNeighbor is one neighbour entry in a HELLO.
type HelloNeighbor struct {
	Addr netem.NodeID
	Link uint8
	MPR  bool // the sender selected this neighbour as an MPR
}

// Hello is the periodic 1-hop broadcast used for link sensing, neighbour
// detection and MPR signalling (RFC 3626 §6).
type Hello struct {
	Neighbors []HelloNeighbor
}

// AppendTo appends the hello body to b.
func (m *Hello) AppendTo(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Neighbors)))
	for _, nb := range m.Neighbors {
		b = wire.AppendString(b, string(nb.Addr))
		var mpr uint8
		if nb.MPR {
			mpr = 1
		}
		b = append(b, nb.Link, mpr)
	}
	return b
}

// TC is a topology-control message flooded through the MPR backbone
// (RFC 3626 §9): the originator advertises links to its MPR selectors.
type TC struct {
	Orig      netem.NodeID
	Seq       uint16 // per-originator message sequence for duplicate detection
	ANSN      uint16 // advertised neighbour sequence number
	TTL       uint8
	Selectors []netem.NodeID
}

// AppendTo appends the TC body to b.
func (m *TC) AppendTo(b []byte) []byte {
	b = wire.AppendString(b, string(m.Orig))
	b = binary.BigEndian.AppendUint16(b, m.Seq)
	b = binary.BigEndian.AppendUint16(b, m.ANSN)
	b = append(b, m.TTL)
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Selectors)))
	for _, s := range m.Selectors {
		b = wire.AppendString(b, string(s))
	}
	return b
}
