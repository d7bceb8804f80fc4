package aodv

import (
	"encoding/binary"
	"fmt"

	"siphoc/internal/netem"
	"siphoc/internal/wire"
)

// Message kinds carried in the routing envelope for ProtoAODV.
const (
	KindRREQ uint8 = iota + 1
	KindRREP
	KindRERR
	KindHello
)

// KindName returns the RFC 3561 message name.
func KindName(k uint8) string {
	switch k {
	case KindRREQ:
		return "RREQ"
	case KindRREP:
		return "RREP"
	case KindRERR:
		return "RERR"
	case KindHello:
		return "HELLO"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}

// RREQ is a route request (RFC 3561 §5.1, simplified).
type RREQ struct {
	ID         uint32
	HopCount   uint8
	TTL        uint8
	Orig       netem.NodeID
	OrigSeq    uint32
	Dst        netem.NodeID
	DstSeq     uint32
	UnknownSeq bool
}

// AppendTo appends the request body to b.
func (m *RREQ) AppendTo(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, m.ID)
	b = append(b, m.HopCount, m.TTL)
	b = wire.AppendString(b, string(m.Orig))
	b = binary.BigEndian.AppendUint32(b, m.OrigSeq)
	b = wire.AppendString(b, string(m.Dst))
	b = binary.BigEndian.AppendUint32(b, m.DstSeq)
	if m.UnknownSeq {
		return append(b, 1)
	}
	return append(b, 0)
}

// ParseRREQ decodes a request body.
func ParseRREQ(b []byte) (*RREQ, error) {
	r := wire.NewReader(b)
	m := &RREQ{
		ID:       r.U32(),
		HopCount: r.U8(),
		TTL:      r.U8(),
	}
	m.Orig = netem.NodeID(r.String())
	m.OrigSeq = r.U32()
	m.Dst = netem.NodeID(r.String())
	m.DstSeq = r.U32()
	m.UnknownSeq = r.U8() == 1
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("aodv: parse RREQ: %w", err)
	}
	return m, nil
}

// RREP is a route reply (RFC 3561 §5.2, simplified).
type RREP struct {
	HopCount   uint8
	Orig       netem.NodeID // requester the reply travels back to
	Dst        netem.NodeID // destination the route leads to
	DstSeq     uint32
	LifetimeMs uint32
}

// AppendTo appends the reply body to b.
func (m *RREP) AppendTo(b []byte) []byte {
	b = append(b, m.HopCount)
	b = wire.AppendString(b, string(m.Orig))
	b = wire.AppendString(b, string(m.Dst))
	b = binary.BigEndian.AppendUint32(b, m.DstSeq)
	return binary.BigEndian.AppendUint32(b, m.LifetimeMs)
}

// ParseRREP decodes a reply body.
func ParseRREP(b []byte) (*RREP, error) {
	r := wire.NewReader(b)
	m := &RREP{HopCount: r.U8()}
	m.Orig = netem.NodeID(r.String())
	m.Dst = netem.NodeID(r.String())
	m.DstSeq = r.U32()
	m.LifetimeMs = r.U32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("aodv: parse RREP: %w", err)
	}
	return m, nil
}

// Unreachable names one destination lost with a broken link.
type Unreachable struct {
	Dst netem.NodeID
	Seq uint32
}

// RERR reports broken routes (RFC 3561 §5.3, simplified).
type RERR struct {
	Unreachable []Unreachable
}

// AppendTo appends the error body to b.
func (m *RERR) AppendTo(b []byte) []byte {
	b = append(b, uint8(len(m.Unreachable)))
	for _, u := range m.Unreachable {
		b = wire.AppendString(b, string(u.Dst))
		b = binary.BigEndian.AppendUint32(b, u.Seq)
	}
	return b
}

// ParseRERR decodes an error body.
func ParseRERR(b []byte) (*RERR, error) {
	r := wire.NewReader(b)
	n := int(r.U8())
	m := &RERR{}
	for range n {
		u := Unreachable{Dst: netem.NodeID(r.String())}
		u.Seq = r.U32()
		m.Unreachable = append(m.Unreachable, u)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("aodv: parse RERR: %w", err)
	}
	return m, nil
}

// Hello is the periodic local broadcast announcing liveness (RFC 3561 uses
// an unsolicited RREP; a dedicated kind keeps the codec simple).
type Hello struct {
	Seq uint32
}

// AppendTo appends the hello body to b.
func (m *Hello) AppendTo(b []byte) []byte { return binary.BigEndian.AppendUint32(b, m.Seq) }

// ParseHello decodes a hello body.
func ParseHello(b []byte) (*Hello, error) {
	r := wire.NewReader(b)
	m := &Hello{Seq: r.U32()}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("aodv: parse HELLO: %w", err)
	}
	return m, nil
}
