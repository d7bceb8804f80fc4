package core

import (
	"fmt"

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
	Inner []byte // tunData: MarshalDatagram output
}

func (m *tunnelMsg) marshal() []byte {
	w := wire.NewWriter(2 + len(m.Inner))
	w.U8(m.Kind)
	switch m.Kind {
	case tunOpenAck:
		if m.OK {
			w.U8(1)
		} else {
			w.U8(0)
		}
	case tunData:
		w.Raw(m.Inner)
	}
	return w.Bytes()
}

// parseTunnelMsg decodes b. Inner aliases b: both tunnel ends hand it to the
// local stack (netem.InjectDatagram, SendDatagram, the trunk's frame under
// construction) before the datagram b arrived in goes back to the network.
func parseTunnelMsg(b []byte) (*tunnelMsg, error) {
	r := wire.NewReader(b)
	m := &tunnelMsg{Kind: r.U8()}
	switch m.Kind {
	case tunOpenAck:
		m.OK = r.U8() == 1
	case tunData:
		m.Inner = r.Remaining()
	case tunOpen, tunClose, tunPing, tunPong:
	default:
		return nil, fmt.Errorf("core: unknown tunnel message kind %d", m.Kind)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: parse tunnel message: %w", err)
	}
	return m, nil
}

// encapsulate wraps a datagram for transport through the tunnel.
func encapsulate(dg *netem.Datagram) ([]byte, error) {
	inner, err := netem.MarshalDatagram(dg)
	if err != nil {
		return nil, err
	}
	return (&tunnelMsg{Kind: tunData, Inner: inner}).marshal(), nil
}
