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
	"time"

	"siphoc/internal/netem"
)

// Protocol numbers carried in the routing-frame envelope.
const (
	ProtoAODV uint8 = 1
	ProtoOLSR uint8 = 2
)

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

// Spares is a free list of scratch that components share — one value per
// use in progress, not one per component. It is a mutex-guarded stack rather
// than a sync.Pool, which drops values at random under the race detector and
// would make a steady state allocate there.
type Spares[T any] struct {
	mu sync.Mutex
	s  []T
}

// Take returns a spare, or the zero T when there is none.
func (p *Spares[T]) Take() (x T) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.s); n > 0 {
		x, p.s = p.s[n-1], p.s[:n-1]
	}
	return x
}

// Put hands x back for the next Take.
func (p *Spares[T]) Put(x T) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.s = append(p.s, x)
}

// PiggybackHandler is the paper's "routing handler plugin": a software
// module that receives routing packets and produces altered packets carrying
// piggybacked service information. Both ways it works on bytes it is lent
// (see netem.Frame for the rule).
type PiggybackHandler interface {
	// AppendOutgoing is invoked for every control message about to be sent,
	// with the frame built so far, in the wire buffer it goes out in. It may
	// append up to msg.Budget bytes of extension payload, and returns b as it
	// is to leave the message untouched; an extension over budget is dropped
	// and the message sent bare.
	AppendOutgoing(b []byte, msg Outgoing) []byte
	// Incoming is invoked for every received control message that
	// carries an extension, which is the handler's to read until it returns.
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

// Incoming describes a received control message carrying an extension. Ext
// aliases the received frame: a handler copies what it keeps (see
// netem.Frame).
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

// HeaderLen is the length of the envelope's header: byte i of the body is
// byte HeaderLen+i of the frame.
const HeaderLen = 4

// Framer sends a protocol's control frames, each written once: header, body
// and the extension the piggyback handler puts behind them go into an MTU wire
// buffer, since the handler may fill the message to the MTU, and a frame that
// fits the small class is copied down into one (see netem.Host.SendWire), so a
// control frame costs no allocation however its extension's size varies from
// one message to the next. A Framer holds no state and may be used from
// several goroutines at once.
type Framer struct{}

// Begin takes a wire buffer for a message and writes the envelope header into
// it. The caller appends the body and hands the result to Send.
func (f *Framer) Begin(proto, kind uint8) []byte {
	return append(netem.TakeWire(netem.MTU), proto, kind, 0, 0)
}

// Send completes the frame in b — Begin's header with the body behind it — and
// transmits it to dst from host: it fills in the body's length, lets pb append
// its extension (a nil pb, or one that adds nothing, leaves it empty) and
// hands the buffer to the medium. b is not the caller's any more when Send
// returns.
func (f *Framer) Send(host *netem.Host, pb PiggybackHandler, dst netem.NodeID, kind2 string, b []byte) error {
	b = f.finish(pb, Outgoing{Proto: b[0], Kind: b[1], Kind2: kind2, Dst: dst}, b)
	return host.SendWire(dst, netem.KindRouting, b)
}

// finish is Send without the medium. The extension's bound is checked here,
// where it is known: an extension over msg.Budget, which finish fills in,
// would take the frame past the MTU and the medium would refuse the whole
// message, so it is cut back to empty and the message goes out bare.
func (f *Framer) finish(pb PiggybackHandler, msg Outgoing, b []byte) []byte {
	bodyLen := len(b) - HeaderLen
	binary.BigEndian.PutUint16(b[2:], uint16(bodyLen))
	b = append(b, 0, 0)
	ext := len(b) // where the empty extension ends and a real one starts
	if pb != nil {
		msg.Budget = ExtBudget(bodyLen)
		if e := pb.AppendOutgoing(b, msg); len(e) >= ext && len(e)-ext <= msg.Budget {
			b = e
		}
	}
	binary.BigEndian.PutUint16(b[ext-2:], uint16(len(b)-ext))
	return b
}

// ParseEnvelopeInto decodes a routing frame into a caller-supplied envelope: a
// stack-local Envelope filled here never escapes. Body and Ext alias the
// input rather than copying: a received frame's payload is lent to its handler
// (see netem.Frame), and every decoder downstream (wire.Reader.String, the
// network's handle table, slp's item.advert) copies what it keeps.
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

// Table is AODV's concurrency-safe route table. Expiry is evaluated lazily
// against the supplied clock time on lookup.
type Table struct {
	mu      sync.Mutex
	entries map[netem.NodeID]Entry
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{entries: make(map[netem.NodeID]Entry)}
}

// Upsert installs or replaces the route for e.Dst. It never lowers the
// destination's sequence number: e takes the current route's when that is
// fresher (RFC 3561 §6.2).
func (t *Table) Upsert(e Entry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.entries[e.Dst]; ok && cur.SeqNo > e.SeqNo {
		e.SeqNo = cur.SeqNo
	}
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
	return t.Use(dst, now, time.Time{})
}

// Use is Lookup for a packet about to take the route: it also makes the route,
// and the route to its next hop, live until at least until, so that a route
// in use does not expire (RFC 3561 §6.2). A route without a lifetime keeps
// none.
func (t *Table) Use(dst netem.NodeID, now, until time.Time) (Entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[dst]
	if !ok || !e.Expires.IsZero() && now.After(e.Expires) {
		delete(t.entries, dst)
		return Entry{}, false
	}
	if until.IsZero() {
		return e, true
	}
	for _, id := range [2]netem.NodeID{dst, e.NextHop} {
		if r, ok := t.entries[id]; ok && !r.Expires.IsZero() && !now.After(r.Expires) && until.After(r.Expires) {
			r.Expires = until
			t.entries[id] = r
		}
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

// Replace swaps in a whole new table atomically: the map is cleared and
// refilled under the lock, so it is reused, and the caller may reuse entries
// at once. No protocol calls it (OLSR keeps its routes in its own dense
// arrays); it stays for the layer benchmark that prices a whole-table swap.
func (t *Table) Replace(entries []Entry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.entries)
	for _, e := range entries {
		t.entries[e.Dst] = e
	}
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
