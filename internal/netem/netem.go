// Package netem emulates a mobile ad hoc network (MANET) at packet level.
//
// It replaces the paper's physical testbed (ten Debian laptops and iPAQ
// handhelds on ad hoc WiFi, with firewalls forcing multihop paths): nodes
// have 2-D positions and a unit-disk radio range, frames between nodes in
// range experience configurable delay and loss, and frames between nodes out
// of range are never delivered — exactly the property the paper's firewalls
// enforced.
//
// Layering mirrors a real stack:
//
//   - Network is the shared radio medium. It delivers link-layer Frames
//     (unicast or local broadcast) between neighbouring nodes.
//   - Host is a node's network stack: it forwards Datagrams across multiple
//     hops using a routing protocol's next-hop table (see RouteProvider) and
//     exposes UDP-like ports (Listen/Conn) to applications such as the SIP
//     proxy, the SLP agent and RTP media.
//
// Routing protocols (internal/routing/aodv, internal/routing/olsr) sit
// between the two: they exchange control traffic as Frames of KindRouting
// and feed the Host's forwarding engine.
package netem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"
)

// NodeID identifies a node on the MANET, e.g. "10.0.0.1". The zero value is
// reserved for broadcast.
type NodeID string

// Broadcast is the link-local broadcast destination: every node currently in
// radio range of the sender receives the frame.
const Broadcast NodeID = ""

// FrameKind says which layer a link frame belongs to.
type FrameKind uint8

// Frame kinds. Routing control traffic is kept distinct from data traffic so
// that routing handlers (used for SLP piggybacking) only see control frames,
// and so that overhead experiments can account for each class separately.
const (
	KindRouting FrameKind = iota + 1
	KindData
	// KindService carries standalone service-discovery traffic (the
	// multicast-SLP baseline); the paper's piggybacked MANET SLP sends
	// none of these.
	KindService
)

// String implements fmt.Stringer.
func (k FrameKind) String() string {
	switch k {
	case KindRouting:
		return "routing"
	case KindData:
		return "data"
	case KindService:
		return "service"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Frame is a link-layer frame on the radio medium. Dst == Broadcast delivers
// to all neighbours of Src.
//
// Ownership. This is the one statement of who may touch which bytes when;
// everything that hands storage across a netem boundary points here.
//
// Every byte slice that crosses a netem boundary is borrowed, in both
// directions, frames and datagrams alike. What goes on the air from the
// forwarding engine or a routing protocol lives in a wire buffer from a free
// list, which is overwritten with poison and recycled as soon as the frame's
// life ends.
//
// Frames: a handler installed with HandleFrames is lent Payload for the
// length of its call and not a moment longer — a broadcast's buffer goes back
// when the last receiver of the fan-out has returned — so it copies what it
// keeps, and so does a tap (SetTap), which runs before the frame is scheduled.
// A broadcast payload is shared by every receiver and is read-only; a unicast
// data payload belongs to its one receiver, which may rewrite it — a relay
// decrements a datagram's hop limit in place and sends the same bytes on. On
// the way in there are two shapes. SendFrame is handed storage that stays the
// caller's: netem only reads it and never recycles or poisons it, so the same
// slice may be sent again, but it must not be written to while a frame is in
// flight. A sender that builds its frame in a buffer TakeWire lent it hands it
// back with SendWire and must not touch it again: the frame costs no
// allocation and no copy, which is how every routing control frame is sent.
//
// Datagrams: what a port handler (Conn.Handle), sink (SetSink) or default
// handler (SetDefaultHandler) is given — the *Datagram and its Data — is its to
// use until it returns: the header lives in a recycled delivery and Data in a
// wire buffer. The node IDs are the exception: they are the network's own
// strings (see Network.OwnedID) and may be kept. A handler that keeps anything
// else calls Clone. In the other direction SendDatagram, InjectDatagram and
// WriteTo may be handed storage the caller reuses at once: by the time they
// return netem has encoded the datagram into a wire buffer of its own, or
// copied it at the only two places it holds one past the call (the
// pending-discovery queue and the loopback hand-off). Those two keep the node
// IDs as given, so a caller whose IDs alias a buffer of its own hands in
// OwnedID's instead.
type Frame struct {
	Src     NodeID
	Dst     NodeID
	Kind    FrameKind
	Payload []byte

	// pooled marks a Payload taken from the wire-buffer free list: whoever
	// ends the frame's life (a local delivery, a drop) gives it back.
	pooled bool
}

// Datagram is the network/transport-layer unit carried inside KindData
// frames: an IP+UDP-like header plus application payload, forwarded hop by
// hop toward DstNode.
type Datagram struct {
	SrcNode NodeID
	DstNode NodeID
	SrcPort uint16
	DstPort uint16
	TTL     uint8
	Data    []byte
}

// Clone returns a copy of d with Data of its own: what a handler that keeps a
// delivered datagram past its return calls (see Frame for the rule).
func (d *Datagram) Clone() *Datagram {
	c := *d
	c.Data = append([]byte(nil), d.Data...)
	return &c
}

// DefaultTTL is the initial hop limit for datagrams, ample for the paper's
// testbed scale and for our up-to-64-node simulations.
const DefaultTTL = 32

// Errors returned by the host stack.
var (
	ErrNoRoute      = errors.New("netem: no route to destination")
	ErrPortInUse    = errors.New("netem: port already in use")
	ErrClosed       = errors.New("netem: closed")
	ErrUnknownNode  = errors.New("netem: unknown node")
	ErrFrameTooBig  = errors.New("netem: frame exceeds MTU")
	ErrSelfDelivery = errors.New("netem: datagram addressed to sender")
)

// MTU is the maximum link-frame payload, matching 802.11-style limits. The
// SLP piggybacking code uses the remaining headroom of routing frames, so the
// budget is enforced here.
const MTU = 2304

// UnmarshalDatagram decodes the wire format AppendDatagram produces into a
// datagram of its own. Data aliases b; callers that reuse b must copy.
func UnmarshalDatagram(b []byte) (*Datagram, error) { return unmarshalDatagram(b) }

// AppendDatagram appends d's wire encoding to buf and returns the extended
// slice:
//
//	srcLen u8 | src | dstLen u8 | dst | srcPort u16 | dstPort u16 | ttl u8 | data
//
// It allocates nothing when buf has the room: the forwarding engine encodes
// into a wire buffer, the tunnel and the trunk into scratch of their own.
func AppendDatagram(buf []byte, d *Datagram) ([]byte, error) {
	if len(d.SrcNode) > 255 || len(d.DstNode) > 255 {
		return buf, fmt.Errorf("netem: node id too long")
	}
	buf = append(buf, byte(len(d.SrcNode)))
	buf = append(buf, d.SrcNode...)
	buf = append(buf, byte(len(d.DstNode)))
	buf = append(buf, d.DstNode...)
	buf = binary.BigEndian.AppendUint16(buf, d.SrcPort)
	buf = binary.BigEndian.AppendUint16(buf, d.DstPort)
	buf = append(buf, d.TTL)
	buf = append(buf, d.Data...)
	return buf, nil
}

// UnmarshalDatagramInto decodes b into d, reusing the caller's Datagram.
// Unlike UnmarshalDatagram, every field of d — the node IDs included —
// aliases b, so d is only valid while b is: callers that retain d or reuse b
// must copy first (Network.OwnedID gives node IDs that may be kept). This is
// the allocation-free flavour for per-packet receive paths: both tunnel ends
// and the gateway trunk fan-out.
func UnmarshalDatagramInto(d *Datagram, b []byte) error {
	*d = Datagram{}
	_, err := decodeDatagramZeroCopy(d, b)
	return err
}

// datagramWireLen is the length of d's wire encoding.
func datagramWireLen(d *Datagram) int {
	return 2 + len(d.SrcNode) + len(d.DstNode) + 5 + len(d.Data)
}

// unmarshalDatagram decodes wire format produced by AppendDatagram. Data
// aliases the input rather than copying; the node IDs are copied.
func unmarshalDatagram(b []byte) (*Datagram, error) {
	d := &Datagram{}
	if _, err := decodeDatagramWith(d, b, func(s []byte) NodeID { return NodeID(s) }); err != nil {
		return nil, err
	}
	return d, nil
}

// zeroCopyNodeID views a byte slice as a NodeID without copying. The result
// aliases s and is only valid while s is.
func zeroCopyNodeID(s []byte) NodeID {
	if len(s) == 0 {
		return ""
	}
	return NodeID(unsafe.String(&s[0], len(s)))
}

// decodeDatagramZeroCopy decodes b into d with every field aliasing b, and
// returns the offset of the TTL byte in b — what a relay rewrites to forward
// the datagram in place.
func decodeDatagramZeroCopy(d *Datagram, b []byte) (ttlOff int, err error) {
	return decodeDatagramWith(d, b, zeroCopyNodeID)
}

func decodeDatagramWith(d *Datagram, b []byte, nodeID func([]byte) NodeID) (ttlOff int, err error) {
	if len(b) < 1 {
		return 0, fmt.Errorf("netem: short datagram")
	}
	srcLen := int(b[0])
	b = b[1:]
	if len(b) < srcLen+1 {
		return 0, fmt.Errorf("netem: truncated src node")
	}
	d.SrcNode = nodeID(b[:srcLen])
	b = b[srcLen:]
	dstLen := int(b[0])
	b = b[1:]
	if len(b) < dstLen+5 {
		return 0, fmt.Errorf("netem: truncated dst node")
	}
	d.DstNode = nodeID(b[:dstLen])
	b = b[dstLen:]
	d.SrcPort = binary.BigEndian.Uint16(b[0:2])
	d.DstPort = binary.BigEndian.Uint16(b[2:4])
	d.TTL = b[4]
	if len(b) > 5 {
		d.Data = b[5:]
	}
	return 1 + srcLen + 1 + dstLen + 4, nil
}
