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

// Marshal encodes the request body.
func (m *RREQ) Marshal() []byte {
	w := wire.NewWriter(32)
	w.U32(m.ID)
	w.U8(m.HopCount)
	w.U8(m.TTL)
	w.String(string(m.Orig))
	w.U32(m.OrigSeq)
	w.String(string(m.Dst))
	w.U32(m.DstSeq)
	if m.UnknownSeq {
		w.U8(1)
	} else {
		w.U8(0)
	}
	return w.Bytes()
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

// Marshal encodes the reply body.
func (m *RREP) Marshal() []byte {
	w := wire.NewWriter(32)
	w.U8(m.HopCount)
	w.String(string(m.Orig))
	w.String(string(m.Dst))
	w.U32(m.DstSeq)
	w.U32(m.LifetimeMs)
	return w.Bytes()
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

// Marshal encodes the error body.
func (m *RERR) Marshal() []byte {
	w := wire.NewWriter(8 + 16*len(m.Unreachable))
	w.U8(uint8(len(m.Unreachable)))
	for _, u := range m.Unreachable {
		w.String(string(u.Dst))
		w.U32(u.Seq)
	}
	return w.Bytes()
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

// Marshal encodes the hello body.
func (m *Hello) Marshal() []byte {
	// A buffer of constant size, so that it stays on the stack of a caller
	// that only copies it into a frame.
	return binary.BigEndian.AppendUint32(make([]byte, 0, 4), m.Seq)
}

// ParseHello decodes a hello body.
func ParseHello(b []byte) (*Hello, error) {
	r := wire.NewReader(b)
	m := &Hello{Seq: r.U32()}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("aodv: parse HELLO: %w", err)
	}
	return m, nil
}
