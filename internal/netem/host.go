package netem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"siphoc/internal/clock"
)

// RouteProvider is what a routing protocol exposes to the forwarding engine.
// AODV implements RequestRoute by flooding an RREQ; OLSR answers from its
// proactively maintained table.
type RouteProvider interface {
	// NextHop returns the neighbour to forward traffic for dst to.
	NextHop(dst NodeID) (NodeID, bool)
	// RequestRoute asks the protocol to obtain a route to dst. done is
	// invoked exactly once, possibly synchronously, with the outcome.
	RequestRoute(dst NodeID, done func(found bool))
}

// HostStats counts per-node datagram activity.
type HostStats struct {
	Sent       int64 // datagrams originated here
	Received   int64 // datagrams delivered to a local port
	Forwarded  int64 // datagrams relayed for other nodes
	NoRoute    int64 // datagrams dropped after failed route discovery
	TTLExpired int64 // datagrams dropped on hop-limit exhaustion
	PortDrops  int64 // datagrams dropped at a bound port with no handler
}

// hostCounters is the live, atomically updated form of HostStats, so the
// forwarding fast path never takes the host lock just to count.
type hostCounters struct {
	sent       atomic.Int64
	received   atomic.Int64
	forwarded  atomic.Int64
	noRoute    atomic.Int64
	ttlExpired atomic.Int64
	portDrops  atomic.Int64
}

func (c *hostCounters) snapshot() HostStats {
	return HostStats{
		Sent:       c.sent.Load(),
		Received:   c.received.Load(),
		Forwarded:  c.forwarded.Load(),
		NoRoute:    c.noRoute.Load(),
		TTLExpired: c.ttlExpired.Load(),
		PortDrops:  c.portDrops.Load(),
	}
}

// Host is one node's network stack: link interface, multihop forwarding and
// UDP-like ports. Create hosts with Network.AddHost.
//
// A host has no goroutine of its own: frames are handled on the worker of the
// scheduler shard they were queued on. Unicast (KindData) deliveries for one
// host all land on its own shard, the one its timers and media run on, so
// datagram/Conn handling stays serialized per host; broadcast
// control frames run on the sender's shard and rely on the protocol
// handlers' own locking.
type Host struct {
	net    *Network
	id     NodeID
	handle uint32

	closedFlag atomic.Bool

	mu        sync.RWMutex
	handlers  map[FrameKind]func(Frame)
	rp        RouteProvider
	defaultFn func(*Datagram) bool
	sink      func(*Datagram)
	ports     map[uint16]*Conn
	pending   map[NodeID][]queued
	nextPort  uint16
	closed    bool

	stats hostCounters
}

// maxPending bounds the per-destination queue of datagrams awaiting route
// discovery, mirroring AODV's small send buffer.
const maxPending = 16

// queued is a datagram awaiting route discovery: the host's own copy of it
// (see Frame), and whether it was passing through when it was queued.
type queued struct {
	dg      *Datagram
	transit bool
}

func newHost(n *Network, id NodeID) *Host {
	h := &Host{
		net:      n,
		id:       id,
		handlers: make(map[FrameKind]func(Frame)),
		ports:    make(map[uint16]*Conn),
		pending:  make(map[NodeID][]queued),
		nextPort: 32768,
	}
	return h
}

// ID returns the node's address.
func (h *Host) ID() NodeID { return h.id }

// Network returns the medium the host is attached to.
func (h *Host) Network() *Network { return h.net }

// Sched returns the scheduler the host's protocols run their timers and paced
// media on, which is the network's, the one that delivers its frames: one for
// all its hosts, on its clock, closed with it. Tasks keyed by the host's ID
// share a shard with each other and with the host's unicast deliveries, and so
// never run concurrently with any of them. A task runs on a shard worker and
// must not block.
func (h *Host) Sched() *clock.Scheduler { return h.net.sched }

// Clock returns the host's time source, which is its network's. Everything
// bound to the host — protocols, proxies, phones — reads time here, so its
// TTL stamps and the timers Sched runs for it can never disagree.
func (h *Host) Clock() clock.Clock { return h.net.Clock() }

// Neighbors returns the node's current radio neighbourhood.
func (h *Host) Neighbors() []NodeID { return h.net.Neighbors(h.id) }

// Stats returns a snapshot of the host's forwarding counters.
func (h *Host) Stats() HostStats { return h.stats.snapshot() }

// SendFrame transmits a raw link frame whose payload stays the caller's: the
// medium and the receivers only read it, so the caller may send the same bytes
// again but must not write to them while a frame is in flight (see Frame).
func (h *Host) SendFrame(dst NodeID, kind FrameKind, payload []byte) error {
	return h.net.send(Frame{Src: h.id, Dst: dst, Kind: kind, Payload: payload})
}

// SendWire transmits a frame its caller built in place, by appending to a
// buffer TakeWire lent it (routing protocols use this). The storage is netem's
// from this call on, whatever it returns (see Frame). The frame crosses the
// medium in the smallest class that holds it: one built in an MTU buffer that
// fits the small class is copied down into one, and the MTU buffer goes back
// to the free list at once. Appends that outgrew the lent buffer moved the
// frame to the heap and left the buffer to the collector; it moves once more
// here, into a wire buffer, so that what goes on the air is always one. The
// capacity alone tells the cases apart: a slice with a class's capacity is as
// good as a buffer of that class.
func (h *Host) SendWire(dst NodeID, kind FrameKind, b []byte) error {
	switch c := cap(b); {
	case c == MTU && len(b) <= voiceWireBytes:
		small := append(TakeWire(len(b)), b...)
		giveWire(Frame{Payload: b, pooled: true})
		b = small
	case c != voiceWireBytes && c != MTU:
		if len(b) > MTU {
			return ErrFrameTooBig
		}
		b = append(TakeWire(len(b)), b...)
	}
	return h.net.send(Frame{Src: h.id, Dst: dst, Kind: kind, Payload: b, pooled: true})
}

// HandleFrames registers fn as the receiver for incoming frames of the given
// kind. KindData is handled internally by the forwarding engine and cannot
// be overridden. fn borrows the frame's Payload (see Frame).
func (h *Host) HandleFrames(kind FrameKind, fn func(Frame)) error {
	if kind == KindData {
		return fmt.Errorf("netem: KindData is reserved for the forwarding engine")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.handlers[kind] = fn
	return nil
}

// SetRouteProvider attaches the routing protocol used for multihop
// forwarding.
func (h *Host) SetRouteProvider(rp RouteProvider) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.rp = rp
}

// SetDefaultHandler installs fn as the last-resort handler for datagrams
// whose destination is not a known MANET node. It is how the Connection
// Provider tunnels Internet-bound traffic to a gateway. fn reports whether
// it consumed the datagram, which it borrows (see Frame).
func (h *Host) SetDefaultHandler(fn func(*Datagram) bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.defaultFn = fn
}

// SetSink puts the host in promiscuous delivery mode: every datagram
// addressed to this host whose port is not explicitly bound is handed to fn
// instead of being dropped. Gateway tunnel endpoints use this to capture all
// traffic for a tunnelled node; the gateway's own trunk listener keeps its
// bound port. fn borrows the datagram (see Frame).
func (h *Host) SetSink(fn func(*Datagram)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sink = fn
}

// enqueue is called by the medium to deliver a frame, which is handled right
// here on the delivery shard's worker: overload shows up as deliveries
// running late (the shard heap backing up), not as queue drops. dg is the
// delivery's, for the header of a datagram handed to a local handler. enqueue
// reports whether the payload was sent on to the next hop, and so is no
// longer the caller's.
func (h *Host) enqueue(f Frame, dg *Datagram) (sentOn bool) {
	if h.closedFlag.Load() {
		return false
	}
	if f.Kind == KindData {
		return h.handleData(f, dg)
	}
	h.mu.RLock()
	fn := h.handlers[f.Kind]
	h.mu.RUnlock()
	if fn != nil {
		fn(f)
	}
	return false
}

// handleData is the forwarding engine's receive side. f arrived as a unicast
// frame, so this host owns its payload (see Frame).
func (h *Host) handleData(f Frame, dg *Datagram) (sentOn bool) {
	payload := f.Payload
	var hdr Datagram // stays on the stack; its node IDs and Data alias payload
	ttlOff, err := decodeDatagramZeroCopy(&hdr, payload)
	if err != nil {
		return false
	}
	if hdr.DstNode != h.id {
		if hdr.TTL <= 1 {
			h.stats.ttlExpired.Add(1)
			return false
		}
		// Transit with a live route, which is all a relay does in steady
		// state: spend one hop of the limit in the bytes we were handed and
		// send them on, the buffer's place on the free list with them.
		// Nothing is allocated and nothing that aliases payload leaves this
		// function: the route provider sees the network's own copy of the
		// destination ID.
		if dst, ok := h.net.hostID(hdr.DstNode); ok {
			if next, ok := h.nextHop(dst); ok {
				payload[ttlOff]--
				h.stats.forwarded.Add(1)
				f.Src, f.Dst = h.id, next
				_ = h.net.send(f)
				return true
			}
		}
	}
	// For this host, or no route: a handler (port, sink, tunnel) borrows the
	// datagram, so it gets a header whose node IDs it may keep. Data still
	// aliases payload.
	*dg = Datagram{
		SrcNode: h.net.OwnedID(hdr.SrcNode),
		DstNode: h.id,
		SrcPort: hdr.SrcPort,
		DstPort: hdr.DstPort,
		TTL:     hdr.TTL,
		Data:    hdr.Data,
	}
	if hdr.DstNode != h.id {
		dg.DstNode = h.net.OwnedID(hdr.DstNode)
	}
	// We are already on this host's delivery shard, so a local delivery may
	// run directly without re-scheduling.
	h.routeDatagramEx(dg, false, true)
	return false
}

// nextHop asks the routing protocol, if one is attached, for the neighbour
// toward dst.
func (h *Host) nextHop(dst NodeID) (NodeID, bool) {
	h.mu.RLock()
	rp := h.rp
	h.mu.RUnlock()
	if rp == nil {
		return "", false
	}
	return rp.NextHop(dst)
}

// SendDatagram originates a datagram from this host. Datagrams to the host
// itself are delivered via loopback without touching the medium — exactly
// how the paper's VoIP application reaches its outbound proxy on localhost.
// dg and its Data are the caller's again when it returns (see Frame).
func (h *Host) SendDatagram(dg *Datagram) error {
	if dg.SrcNode == "" {
		dg.SrcNode = h.id
	}
	if dg.TTL == 0 {
		dg.TTL = DefaultTTL
	}
	h.mu.RLock()
	closed := h.closed
	h.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	h.stats.sent.Add(1)
	return h.routeDatagram(dg, true)
}

// routeDatagram delivers locally, forwards toward the next hop, or queues
// pending route discovery. origin marks datagrams created on this host.
func (h *Host) routeDatagram(dg *Datagram, origin bool) error {
	return h.routeDatagramEx(dg, origin, false)
}

// routeDatagramEx is routeDatagram with the shard-affinity bit: onShard is
// true when the caller is already running on this host's delivery shard.
// Local deliveries from foreign goroutines (loopback SendDatagram, gateway
// InjectDatagram) are bounced through the shard scheduler at zero delay,
// which serializes them with medium deliveries and breaks the reentrant
// nesting a phone talking to its own host's proxy would otherwise build up.
func (h *Host) routeDatagramEx(dg *Datagram, origin, onShard bool) error {
	if dg.DstNode == h.id {
		if !onShard {
			h.scheduleLocal(dg)
			return nil
		}
		h.deliverLocal(dg)
		return nil
	}
	if !origin {
		if dg.TTL <= 1 {
			h.stats.ttlExpired.Add(1)
			return nil
		}
		dg.TTL--
	}
	h.mu.RLock()
	rp := h.rp
	defFn := h.defaultFn
	h.mu.RUnlock()

	if rp != nil {
		if next, ok := rp.NextHop(dg.DstNode); ok {
			return h.transmit(dg, next, !origin)
		}
	}
	// No route. Try the default handler (gateway tunnel) first: it owns
	// destinations outside the MANET.
	if defFn != nil && defFn(dg) {
		return nil
	}
	if rp == nil {
		h.stats.noRoute.Add(1)
		return ErrNoRoute
	}
	// Queue and trigger route discovery (reactive protocols).
	h.mu.Lock()
	q := h.pending[dg.DstNode]
	first := len(q) == 0
	if len(q) >= maxPending {
		h.mu.Unlock()
		h.stats.noRoute.Add(1)
		return ErrNoRoute
	}
	h.pending[dg.DstNode] = append(q, queued{dg.Clone(), !origin})
	h.mu.Unlock()
	if first {
		dst := dg.DstNode
		rp.RequestRoute(dst, func(found bool) { h.flushPending(dst, found) })
	}
	return nil
}

func (h *Host) flushPending(dst NodeID, found bool) {
	h.mu.Lock()
	q := h.pending[dst]
	delete(h.pending, dst)
	rp := h.rp
	defFn := h.defaultFn
	h.mu.Unlock()
	if !found {
		h.stats.noRoute.Add(int64(len(q)))
		// Last chance: hand queued datagrams to the default handler so
		// that Internet destinations still leave via the gateway.
		if defFn != nil {
			for _, p := range q {
				defFn(p.dg)
			}
		}
		return
	}
	for _, p := range q {
		next, ok := rp.NextHop(dst)
		if !ok {
			// Found, and gone again before we got here.
			h.stats.noRoute.Add(1)
			continue
		}
		_ = h.transmit(p.dg, next, p.transit)
	}
}

// transmit encodes dg into a wire buffer from the free list and sends it to
// nextHop. dg is only read, and not after transmit returns.
func (h *Host) transmit(dg *Datagram, nextHop NodeID, forwarded bool) error {
	if forwarded {
		h.stats.forwarded.Add(1)
	}
	size := datagramWireLen(dg)
	if size > MTU {
		return ErrFrameTooBig
	}
	buf, _ := takeWire(size)
	payload, err := AppendDatagram(buf, dg)
	if err != nil {
		return err
	}
	return h.net.send(Frame{Src: h.id, Dst: nextHop, Kind: KindData, Payload: payload, pooled: true})
}

// InjectDatagram delivers dg as if it had arrived from the network; gateway
// tunnel endpoints use this to hand decapsulated traffic to the local stack.
// dg and its Data are the caller's again when it returns (see Frame).
func (h *Host) InjectDatagram(dg *Datagram) {
	h.routeDatagram(dg, false)
}

// scheduleLocal hands a loopback datagram to this host's shard with an
// immediate deadline: a copy of it, header in the delivery and data in a wire
// buffer, since dg is the caller's.
func (h *Host) scheduleLocal(dg *Datagram) {
	d := newDelivery()
	buf, pooled := takeWire(len(dg.Data))
	d.frame = Frame{Payload: append(buf, dg.Data...), pooled: pooled}
	d.hdr = *dg
	d.hdr.Data = d.frame.Payload
	d.local = h
	h.net.sched.At(string(h.id), &d.task, h.net.cfg.Clock.Now())
}

func (h *Host) deliverLocal(dg *Datagram) {
	h.mu.RLock()
	sink := h.sink
	c := h.ports[dg.DstPort]
	h.mu.RUnlock()
	// A port bound on this host always wins; the promiscuous sink catches
	// traffic for everything else. Gateways rely on this split: their
	// Internet presence forwards arbitrary ports into the MANET while the
	// trunk listener keeps receiving inter-gateway trunk frames locally.
	if c != nil {
		fn := c.handler.Load()
		if fn == nil {
			h.stats.portDrops.Add(1)
			return
		}
		h.stats.received.Add(1)
		c.handleMu.Lock()
		(*fn)(dg)
		c.handleMu.Unlock()
		return
	}
	if sink == nil {
		return
	}
	h.stats.received.Add(1)
	sink(dg)
}

// Listen binds a UDP-like port. Port 0 picks an ephemeral port.
func (h *Host) Listen(port uint16) (*Conn, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	if port == 0 {
		for range 65535 {
			h.nextPort++
			if h.nextPort < 32768 {
				h.nextPort = 32768
			}
			if _, used := h.ports[h.nextPort]; !used {
				port = h.nextPort
				break
			}
		}
		if port == 0 {
			return nil, ErrPortInUse
		}
	} else if _, used := h.ports[port]; used {
		return nil, ErrPortInUse
	}
	c := &Conn{host: h, port: port}
	h.ports[port] = c
	return c, nil
}

// Close shuts the host down, closing all its ports.
func (h *Host) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	h.closedFlag.Store(true)
	conns := make([]*Conn, 0, len(h.ports))
	for _, c := range h.ports {
		conns = append(conns, c)
	}
	h.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Conn is a bound UDP-like port on a Host. A port delivers to its handler or
// drops: a datagram that arrives before Handle is called counts as a
// PortDrop.
type Conn struct {
	host *Host
	port uint16

	// handler receives datagrams directly on the delivery path. handleMu
	// serializes invocations; it is uncontended on the simulated medium,
	// where one shard owns all of a host's deliveries, and orders the socket
	// reader against loopback deliveries on the UDP underlay.
	handler  atomic.Pointer[func(*Datagram)]
	handleMu sync.Mutex
}

// Handle installs the port's receiver: fn is invoked for every arriving
// datagram, serialized per connection, and borrows it (see Frame). fn runs on
// a delivery worker: it must not block; it may send. A datagram already in
// flight when Close is called may still be delivered, so fn must tolerate
// invocation after shutdown. Pass nil to drop what arrives.
func (c *Conn) Handle(fn func(*Datagram)) {
	if fn == nil {
		c.handler.Store(nil)
		return
	}
	c.handler.Store(&fn)
}

// LocalPort returns the bound port number.
func (c *Conn) LocalPort() uint16 { return c.port }

// Host returns the owning host.
func (c *Conn) Host() *Host { return c.host }

// WriteTo sends data to the given node and port, stamped with this port as
// the source. data is the caller's again when it returns (see Frame).
func (c *Conn) WriteTo(data []byte, dst NodeID, dstPort uint16) error {
	h := c.host
	if h.closedFlag.Load() {
		return ErrClosed
	}
	// Stays on the stack: loopback copies it into a delivery, and a live
	// route encodes it straight into the one buffer the frame carries.
	dg := Datagram{SrcNode: h.id, DstNode: dst, SrcPort: c.port, DstPort: dstPort, TTL: DefaultTTL, Data: data}
	if dst == h.id {
		h.stats.sent.Add(1)
		h.scheduleLocal(&dg)
		return nil
	}
	if next, ok := h.nextHop(dst); ok {
		h.stats.sent.Add(1)
		return h.transmit(&dg, next, false)
	}
	// No route yet: the default handler is offered the datagram, and failing
	// that a copy waits in the pending-discovery queue. A function value sees
	// it, so it is lent from the header of a pooled delivery, which is back in
	// the pool once SendDatagram is done with it, rather than from this frame.
	d := newDelivery()
	d.hdr = dg
	err := h.SendDatagram(&d.hdr)
	d.hdr = Datagram{}
	deliveryPool.Put(d)
	return err
}

// Close unbinds the port.
func (c *Conn) Close() {
	c.host.mu.Lock()
	if c.host.ports[c.port] == c {
		delete(c.host.ports, c.port)
	}
	c.host.mu.Unlock()
}
