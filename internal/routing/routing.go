// Package routing defines the contract between MANET routing protocols
// (AODV, OLSR) and the rest of the system: the forwarding engine consumes
// next hops via netem.RouteProvider, and the MANET SLP layer piggybacks
// service information onto routing control messages through the
// PiggybackHandler hook — the in-process equivalent of the paper's
// libipq-based routing handler that captures and extends raw routing
// packets.
package routing

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"siphoc/internal/netem"
)

// Protocol numbers carried in the routing-frame envelope.
const (
	ProtoAODV uint8 = 1
	ProtoOLSR uint8 = 2
)

// ProtoName returns a human-readable protocol name.
func ProtoName(p uint8) string {
	switch p {
	case ProtoAODV:
		return "AODV"
	case ProtoOLSR:
		return "OLSR"
	default:
		return fmt.Sprintf("proto(%d)", p)
	}
}

// Protocol is a runnable MANET routing protocol bound to one host.
type Protocol interface {
	netem.RouteProvider
	// Name returns the protocol name ("AODV", "OLSR").
	Name() string
	// Start begins protocol operation (periodic timers, frame handling).
	Start() error
	// Stop terminates the protocol and waits for its goroutines.
	Stop()
	// SetPiggyback installs the handler that may extend outgoing control
	// messages and receives extensions found on incoming ones. Must be
	// called before Start.
	SetPiggyback(h PiggybackHandler)
	// Routes returns a snapshot of the current routing table.
	Routes() []Entry
}

// PiggybackHandler is the paper's "routing handler plugin": a software
// module that receives routing packets and produces altered packets carrying
// piggybacked service information.
type PiggybackHandler interface {
	// AppendOutgoing is invoked for every control message about to be sent,
	// with the frame built so far. It may append up to msg.Budget bytes of
	// extension payload, and returns b as it is to leave the message
	// untouched.
	AppendOutgoing(b []byte, msg Outgoing) []byte
	// Incoming is invoked for every received control message that
	// carries an extension.
	Incoming(msg Incoming)
}

// Outgoing describes a control message about to leave the node.
type Outgoing struct {
	Proto  uint8
	Kind   uint8
	Kind2  string // human-readable kind, e.g. "RREP"
	Dst    netem.NodeID
	Budget int
}

// Incoming describes a received control message carrying an extension.
type Incoming struct {
	From  netem.NodeID
	Proto uint8
	Kind  uint8
	Kind2 string
	Ext   []byte
}

// Envelope is the wire format shared by all routing control frames:
//
//	proto u8 | kind u8 | bodyLen u16 | body | extLen u16 | ext
//
// The trailing extension slot is where MANET SLP payloads ride along,
// mirroring the paper's packet-mangling approach (Figure 5 shows an AODV
// route reply with encapsulated SIP contact information).
type Envelope struct {
	Proto uint8
	Kind  uint8
	Body  []byte
	Ext   []byte
}

// AppendEnvelope appends the wire form of an envelope to b, sparing send
// paths the intermediate Envelope struct and its escape to the heap.
func AppendEnvelope(b []byte, proto, kind uint8, body, ext []byte) ([]byte, error) {
	if len(body) > 0xffff || len(ext) > 0xffff {
		return nil, fmt.Errorf("routing: envelope section too large")
	}
	if b == nil {
		b = make([]byte, 0, 6+len(body)+len(ext))
	}
	b = append(b, proto, kind)
	b = binary.BigEndian.AppendUint16(b, uint16(len(body)))
	b = append(b, body...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(ext)))
	b = append(b, ext...)
	return b, nil
}

// HeaderLen is the length of the envelope's header: byte i of the body is
// byte HeaderLen+i of the frame.
const HeaderLen = 4

// Framer builds a protocol's control frames, each in one buffer: header and
// body, then the extension the piggyback handler writes straight behind them.
// The buffer is sized for the extension the previous frame carried, which in
// steady state (a digest and nothing else) is the one this frame carries.
type Framer struct {
	extHint atomic.Int32
}

// Frame returns the control frame for body, which it copies. msg names the
// protocol and kind; its Budget is filled in here. A nil pb, or one that adds
// nothing, leaves the extension empty.
func (f *Framer) Frame(pb PiggybackHandler, msg Outgoing, body []byte) ([]byte, error) {
	b := make([]byte, 0, HeaderLen+len(body)+2+int(f.extHint.Load()))
	b, err := AppendEnvelope(b, msg.Proto, msg.Kind, body, nil)
	if err != nil {
		return nil, err
	}
	ext := len(b) // where the empty extension ends and a real one starts
	if pb != nil {
		msg.Budget = ExtBudget(len(body))
		b = pb.AppendOutgoing(b, msg)
	}
	binary.BigEndian.PutUint16(b[ext-2:], uint16(len(b)-ext))
	f.extHint.Store(int32(len(b) - ext))
	return b, nil
}

// ParseEnvelopeInto decodes a routing frame into a caller-supplied envelope: a
// stack-local Envelope filled here never escapes. Body and Ext alias the
// input rather than copying: frame payloads are freshly marshalled per
// transmit and never mutated after delivery, and every decoder downstream
// (wire.Reader.String, slp.ParsePayload) copies what it keeps.
func ParseEnvelopeInto(e *Envelope, b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("routing: short envelope")
	}
	e.Proto, e.Kind = b[0], b[1]
	e.Body, e.Ext = nil, nil
	n := int(binary.BigEndian.Uint16(b[2:4]))
	b = b[4:]
	if len(b) < n+2 {
		return fmt.Errorf("routing: truncated body")
	}
	e.Body = b[:n]
	b = b[n:]
	m := int(binary.BigEndian.Uint16(b[0:2]))
	b = b[2:]
	if len(b) < m {
		return fmt.Errorf("routing: truncated extension")
	}
	if m > 0 {
		e.Ext = b[:m]
	}
	return nil
}

// ExtBudget returns the extension space left for a control message whose
// body is bodyLen bytes, keeping the whole frame within the link MTU.
func ExtBudget(bodyLen int) int {
	b := netem.MTU - 6 - bodyLen
	if b < 0 {
		return 0
	}
	if b > 0xffff {
		b = 0xffff
	}
	return b
}

// Entry is one route-table row.
type Entry struct {
	Dst     netem.NodeID
	NextHop netem.NodeID
	Hops    int
	SeqNo   uint32
	Expires time.Time // zero means no expiry (proactive protocols)
}

// Table is a concurrency-safe route table shared by protocol
// implementations. Expiry is evaluated lazily against the supplied clock
// time on lookup.
type Table struct {
	mu      sync.Mutex
	entries map[netem.NodeID]Entry
	// spare is the previous generation's map, kept for Replace to clear and
	// refill: proactive protocols call Replace on every recompute, and
	// minting a fresh map each time made Replace the system's second
	// largest allocation site (16% of all bytes in the 1024-node scale
	// study). Double-buffering means steady traffic reuses two maps
	// forever, growing only when the route count reaches a new high water.
	spare map[netem.NodeID]Entry
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{
		entries: make(map[netem.NodeID]Entry),
		spare:   make(map[netem.NodeID]Entry),
	}
}

// Upsert installs or replaces the route for e.Dst.
func (t *Table) Upsert(e Entry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entries[e.Dst] = e
}

// UpsertIfFresher installs e only if it is fresher (higher seqno) or equally
// fresh but shorter than the current route — the AODV route-selection rule.
// It reports whether the table changed.
func (t *Table) UpsertIfFresher(e Entry) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur, ok := t.entries[e.Dst]
	if ok && cur.SeqNo > e.SeqNo {
		return false
	}
	if ok && cur.SeqNo == e.SeqNo && cur.Hops <= e.Hops {
		// Equally fresh but not shorter: keep the current route, but
		// refresh its lifetime so active paths do not expire.
		if e.Expires.After(cur.Expires) {
			cur.Expires = e.Expires
			t.entries[e.Dst] = cur
		}
		return false
	}
	t.entries[e.Dst] = e
	return true
}

// Lookup returns the live route for dst at time now.
func (t *Table) Lookup(dst netem.NodeID, now time.Time) (Entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[dst]
	if !ok {
		return Entry{}, false
	}
	if !e.Expires.IsZero() && now.After(e.Expires) {
		delete(t.entries, dst)
		return Entry{}, false
	}
	return e, true
}

// Remove deletes the route for dst, returning the removed entry if any.
func (t *Table) Remove(dst netem.NodeID) (Entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[dst]
	if ok {
		delete(t.entries, dst)
	}
	return e, ok
}

// RemoveByNextHop deletes all routes through nh and returns them — what a
// node does when it detects a broken link before emitting an RERR.
func (t *Table) RemoveByNextHop(nh netem.NodeID) []Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	var removed []Entry
	for dst, e := range t.entries {
		if e.NextHop == nh {
			removed = append(removed, e)
			delete(t.entries, dst)
		}
	}
	sort.Slice(removed, func(i, j int) bool { return removed[i].Dst < removed[j].Dst })
	return removed
}

// Replace swaps in a whole new table atomically (proactive recomputation).
// The input slice is copied into the table's double-buffered map; the caller
// may reuse it immediately.
func (t *Table) Replace(entries []Entry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.spare)
	for _, e := range entries {
		t.spare[e.Dst] = e
	}
	t.entries, t.spare = t.spare, t.entries
}

// Snapshot returns all live entries sorted by destination.
func (t *Table) Snapshot(now time.Time) []Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Entry, 0, len(t.entries))
	for _, e := range t.entries {
		if !e.Expires.IsZero() && now.After(e.Expires) {
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dst < out[j].Dst })
	return out
}

// Len returns the number of entries including possibly expired ones.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}
