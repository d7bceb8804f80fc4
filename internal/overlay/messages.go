// Package overlay implements a Kademlia-style DHT registrar: a peer-to-peer
// overlay of Internet-connected nodes storing AOR → contact bindings, keyed
// by sip.HashAOR — the decentralized replacement for the federation's central
// provider tier (ROADMAP item "P2P overlay registrar as a third lookup
// backend"; PAPERS.md "IAX-Based Peer-to-Peer VoIP Architecture").
//
// The overlay starts no goroutine: every node's timers (re-publication,
// record expiry, RPC timeouts) are tasks on its host's clock.Scheduler and
// every datagram is handled inline on its netem delivery shard, so the steady goroutine cost is O(scheduler shards), independent of
// overlay size — the same property PR 8 established for the MANET protocols.
package overlay

import (
	"encoding/binary"
	"errors"
)

// Message kinds. Requests and their responses pair up: Ping/Pong,
// FindNode/Nodes, FindValue/Value, Store/Stored.
const (
	KindPing uint8 = iota + 1
	KindPong
	KindFindNode
	KindNodes
	KindFindValue
	KindValue
	KindStore
	KindStored
)

// MaxNodes bounds the node list carried in a Nodes/Value response — ample
// for any sensible replication factor and small enough that a response
// always fits a single frame.
const MaxNodes = 32

// NodeInfo is one overlay peer reference in a response's node list.
type NodeInfo struct {
	// ID is the peer's position in the 32-bit key space
	// (sip.HashAOR of its transport host ID).
	ID uint32
	// Addr is the peer's transport host. On parse it aliases the input
	// buffer; callers that retain it must copy (peer sets do).
	Addr []byte
}

// Message is one DHT wire message. A single struct covers all eight kinds;
// unused fields marshal as zero-length. Parse aliases the input buffer for
// AOR, Value and Nodes[i].Addr, and reuses the Nodes slice backing array —
// the lookup hot path parses with zero allocations.
type Message struct {
	Kind uint8
	// RPC correlates a response with its request.
	RPC uint32
	// From is the sender's overlay ID; 0 marks a passive client that must
	// not be inserted into k-buckets (it stores and serves nothing).
	From uint32
	// Key is the target of a FindNode/FindValue/Store.
	Key uint32
	// Seq orders bindings for the same AOR: higher wins (re-registration
	// supersedes, replicas converge independent of arrival order).
	Seq uint32
	// TTLSec is the remaining record lifetime in seconds (Store/Value).
	TTLSec uint16
	// AOR is the full address-of-record; FindValue/Store carry it so 32-bit
	// key collisions resolve by exact match.
	AOR []byte
	// Value is the binding's contact ("host:port") on Store/Value.
	Value []byte
	// Nodes carries the k closest known peers on Nodes and on a Value miss.
	Nodes []NodeInfo
}

// Wire format (big-endian):
//
//	kind(1) rpc(4) from(4) key(4) seq(4) ttl(2)
//	aorLen(2) aor... valueLen(2) value...
//	nodeCount(1) { id(4) addrLen(1) addr... }*
const msgFixedHeader = 1 + 4 + 4 + 4 + 4 + 2

// Codec errors.
var (
	ErrTruncated = errors.New("overlay: truncated message")
	ErrMalformed = errors.New("overlay: malformed message")
)

// AppendTo appends m's wire encoding to dst and returns the extended slice.
// With a pre-sized dst it allocates nothing.
func (m *Message) AppendTo(dst []byte) []byte {
	dst = append(dst, m.Kind)
	dst = binary.BigEndian.AppendUint32(dst, m.RPC)
	dst = binary.BigEndian.AppendUint32(dst, m.From)
	dst = binary.BigEndian.AppendUint32(dst, m.Key)
	dst = binary.BigEndian.AppendUint32(dst, m.Seq)
	dst = binary.BigEndian.AppendUint16(dst, m.TTLSec)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.AOR)))
	dst = append(dst, m.AOR...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Value)))
	dst = append(dst, m.Value...)
	dst = append(dst, byte(len(m.Nodes)))
	for i := range m.Nodes {
		dst = binary.BigEndian.AppendUint32(dst, m.Nodes[i].ID)
		dst = append(dst, byte(len(m.Nodes[i].Addr)))
		dst = append(dst, m.Nodes[i].Addr...)
	}
	return dst
}

// ParseInto decodes b into m, reusing m's Nodes backing array. AOR, Value
// and Nodes[i].Addr alias b: callers that retain them past b's lifetime must
// copy. With a reused m the parse allocates nothing.
func ParseInto(m *Message, b []byte) error {
	if len(b) < msgFixedHeader {
		return ErrTruncated
	}
	m.Kind = b[0]
	if m.Kind < KindPing || m.Kind > KindStored {
		return ErrMalformed
	}
	m.RPC = binary.BigEndian.Uint32(b[1:])
	m.From = binary.BigEndian.Uint32(b[5:])
	m.Key = binary.BigEndian.Uint32(b[9:])
	m.Seq = binary.BigEndian.Uint32(b[13:])
	m.TTLSec = binary.BigEndian.Uint16(b[17:])
	b = b[msgFixedHeader:]

	var err error
	if m.AOR, b, err = parseBytes16(b); err != nil {
		return err
	}
	if m.Value, b, err = parseBytes16(b); err != nil {
		return err
	}
	if len(b) < 1 {
		return ErrTruncated
	}
	count := int(b[0])
	b = b[1:]
	if count > MaxNodes {
		return ErrMalformed
	}
	m.Nodes = m.Nodes[:0]
	for range count {
		if len(b) < 5 {
			return ErrTruncated
		}
		id := binary.BigEndian.Uint32(b)
		alen := int(b[4])
		b = b[5:]
		if len(b) < alen {
			return ErrTruncated
		}
		m.Nodes = append(m.Nodes, NodeInfo{ID: id, Addr: b[:alen:alen]})
		b = b[alen:]
	}
	if len(b) != 0 {
		return ErrMalformed
	}
	return nil
}

func parseBytes16(b []byte) (field, rest []byte, err error) {
	if len(b) < 2 {
		return nil, nil, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return nil, nil, ErrTruncated
	}
	return b[:n:n], b[n:], nil
}
