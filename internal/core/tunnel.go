package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"siphoc/internal/netem"
	"siphoc/internal/wire"
)

// TunnelPort is the well-known MANET-side port of a gateway's tunnel server.
const TunnelPort uint16 = 9000

// GatewayServiceType is the SLP service type gateways publish under.
const GatewayServiceType = "gateway"

// Tunnel control message kinds.
const (
	tunOpen uint8 = iota + 1
	tunOpenAck
	tunData
	tunClose
	tunPing
	tunPong
)

// tunnelMsg is one tunnel-layer message: a control byte plus, for tunData,
// an encapsulated datagram.
type tunnelMsg struct {
	Kind  uint8
	OK    bool   // tunOpenAck
	Inner []byte // tunData: a datagram in netem's wire format
}

// appendTo appends m's encoding to b. Both tunnel ends build what they send
// in scratch of their own, which WriteTo only borrows (see netem.Frame), so a
// message costs no allocation once the scratch has grown.
func (m *tunnelMsg) appendTo(b []byte) []byte {
	b = append(b, m.Kind)
	switch m.Kind {
	case tunOpenAck:
		ok := byte(0)
		if m.OK {
			ok = 1
		}
		b = append(b, ok)
	case tunData:
		b = append(b, m.Inner...)
	}
	return b
}

// parseTunnelMsg decodes b. Inner aliases b: both tunnel ends hand it to the
// local stack (netem.InjectDatagram, SendDatagram, the trunk's frame under
// construction) before the datagram b arrived in goes back to the network.
func parseTunnelMsg(b []byte) (tunnelMsg, error) {
	r := wire.NewReader(b)
	m := tunnelMsg{Kind: r.U8()}
	switch m.Kind {
	case tunOpenAck:
		m.OK = r.U8() == 1
	case tunData:
		m.Inner = r.Remaining()
	case tunOpen, tunClose, tunPing, tunPong:
	default:
		return tunnelMsg{}, fmt.Errorf("core: unknown tunnel message kind %d", m.Kind)
	}
	if err := r.Err(); err != nil {
		return tunnelMsg{}, fmt.Errorf("core: parse tunnel message: %w", err)
	}
	return m, nil
}

// encapsulate appends dg, wrapped for transport through the tunnel, to b.
func encapsulate(b []byte, dg *netem.Datagram) ([]byte, error) {
	return netem.AppendDatagram(append(b, tunData), dg)
}

// decapsulate decodes the datagram a tunData message carries into dg, in
// place: Data aliases inner, and the node IDs are net's own (see
// netem.Network.OwnedID), so that dg may be handed on to a stack that keeps
// them past the frame inner arrived in.
func decapsulate(dg *netem.Datagram, inner []byte, net *netem.Network) error {
	if err := netem.UnmarshalDatagramInto(dg, inner); err != nil {
		return err
	}
	dg.SrcNode, dg.DstNode = net.OwnedID(dg.SrcNode), net.OwnedID(dg.DstNode)
	return nil
}

// tunnelTx is a tunnel end's send side: one scratch buffer every message is
// built in and lent to WriteTo, which is done with it when it returns (see
// netem.Frame). An end sends from several goroutines — its tasks, SLP
// answers, Stop, the traffic it tunnels — so the scratch is held under mu
// for the length of one send.
type tunnelTx struct {
	mu  sync.Mutex
	buf []byte
}

// send sends the control message m to the tunnel end to.
func (t *tunnelTx) send(conn *netem.Conn, m tunnelMsg, to tunnelPeer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = m.appendTo(t.buf[:0])
	return conn.WriteTo(t.buf, to.node, to.port)
}

// sendDatagram encapsulates dg and sends it to the tunnel end to, counting it
// in sent once it is encoded. It reports whether the datagram went.
func (t *tunnelTx) sendDatagram(conn *netem.Conn, dg *netem.Datagram, to tunnelPeer, sent *atomic.Int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := encapsulate(t.buf[:0], dg)
	if err != nil {
		return false
	}
	t.buf = b
	sent.Add(1)
	return conn.WriteTo(b, to.node, to.port) == nil
}
