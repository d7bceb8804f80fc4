// Package aodv implements the Ad hoc On-demand Distance Vector routing
// protocol (Perkins & Royer, RFC 3561) over the netem link layer. It is one
// of the two routing protocols supported by the paper's system ("currently,
// our system supports two routing protocols, AODV and OLSR") and the one
// whose route replies are shown carrying piggybacked SIP contact information
// in the paper's Figure 5.
package aodv

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/obs"
	"siphoc/internal/routing"
)

// Config tunes protocol timing. The zero value is completed with defaults
// close to RFC 3561; simulations typically scale the intervals down.
type Config struct {
	// HelloInterval is the period of liveness broadcasts (default 1s).
	HelloInterval time.Duration
	// AllowedHelloLoss is how many missed hellos break a link (default 2).
	AllowedHelloLoss int
	// ActiveRouteTimeout is the route lifetime (default 30s).
	ActiveRouteTimeout time.Duration
	// DiscoveryTimeout is how long one RREQ attempt waits (default 1s).
	DiscoveryTimeout time.Duration
	// ExpandingRing enables RFC 3561 §6.4 expanding-ring search: route
	// requests probe small TTL rings (2 then 5 hops, with shorter
	// timeouts) before flooding the whole network, trading worst-case
	// latency for much smaller floods when destinations are close. The
	// zero value disables it; DefaultConfig and SimConfig enable it.
	ExpandingRing bool
	// EnableHello turns periodic hellos on (default true). Tests that
	// drive the protocol manually can disable them.
	EnableHello bool
	// Obs records route-discovery spans and latency. Nil disables.
	Obs *obs.Observer
}

func (c Config) withDefaults() Config {
	if c.HelloInterval == 0 {
		c.HelloInterval = time.Second
	}
	if c.AllowedHelloLoss == 0 {
		c.AllowedHelloLoss = 2
	}
	if c.ActiveRouteTimeout == 0 {
		c.ActiveRouteTimeout = 30 * time.Second
	}
	if c.DiscoveryTimeout == 0 {
		c.DiscoveryTimeout = time.Second
	}
	return c
}

// A discovery floods at most netDiameter hops and is retried rreqRetries
// times after its first network-wide attempt.
const (
	netDiameter = 32
	rreqRetries = 2
)

// DefaultConfig returns RFC-flavoured defaults with hellos enabled.
func DefaultConfig() Config {
	c := Config{EnableHello: true, ExpandingRing: true}.withDefaults()
	return c
}

// SimConfig returns timing scaled for fast in-memory simulation.
func SimConfig() Config {
	return Config{
		HelloInterval:      50 * time.Millisecond,
		AllowedHelloLoss:   3,
		ActiveRouteTimeout: 10 * time.Second,
		DiscoveryTimeout:   150 * time.Millisecond,
		EnableHello:        true,
		ExpandingRing:      true,
	}.withDefaults()
}

// Stats counts protocol activity for overhead experiments.
type Stats struct {
	RREQSent   int64
	RREQFwd    int64
	RREPSent   int64
	RREPFwd    int64
	RERRSent   int64
	HelloSent  int64
	Discovered int64 // successful route discoveries originated here
	Failed     int64 // discoveries that exhausted all retries
}

type seenKey struct {
	orig netem.NodeID
	id   uint32
}

// discovery is one route search in progress.
type discovery struct {
	span  obs.SpanHandle
	start time.Time

	// Under Protocol.mu. finished makes completion idempotent: the route
	// installing, the retry chain running out and Stop race each other.
	callbacks []func(bool)
	finished  bool
}

// Protocol is an AODV instance bound to one host.
type Protocol struct {
	host *netem.Host
	cfg  Config
	clk  clock.Clock

	mu        sync.Mutex
	seq       uint32
	rreqID    uint32
	table     *routing.Table
	neighbors map[netem.NodeID]time.Time
	pending   map[netem.NodeID]*discovery
	pb        routing.PiggybackHandler
	framer    routing.Framer
	stats     Stats
	started   bool
	hello     *clock.Task
	// seen is the RREQ duplicate set: each key's deadline, Unix ns. Every
	// key is held one fixed span, so seenQ holds the keys in expiry order
	// (see forgetSeenLocked).
	seen  map[seenKey]int64
	seenQ clock.ExpiryQueue[seenKey]

	// Pre-resolved obs handles; nil when cfg.Obs is nil.
	obs      *obs.Observer
	obsDelay *obs.Histogram
}

var _ routing.Protocol = (*Protocol)(nil)

// New creates an AODV instance for host. Call Start to begin operation.
func New(host *netem.Host, cfg Config) *Protocol {
	cfg = cfg.withDefaults()
	p := &Protocol{
		host:      host,
		cfg:       cfg,
		clk:       host.Clock(),
		table:     routing.NewTable(),
		neighbors: make(map[netem.NodeID]time.Time),
		pending:   make(map[netem.NodeID]*discovery),
	}
	if cfg.Obs.Enabled() {
		p.obs = cfg.Obs
		p.obsDelay = cfg.Obs.Histogram("aodv.discovery.delay", nil)
	}
	return p
}

// Name implements routing.Protocol.
func (p *Protocol) Name() string { return "AODV" }

// SetPiggyback implements routing.Protocol.
func (p *Protocol) SetPiggyback(h routing.PiggybackHandler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pb = h
}

// Start implements routing.Protocol.
func (p *Protocol) Start() error {
	p.mu.Lock()
	if p.started {
		p.mu.Unlock()
		return fmt.Errorf("aodv: already started")
	}
	p.started = true
	p.mu.Unlock()
	if err := p.host.HandleFrames(netem.KindRouting, p.onFrame); err != nil {
		return err
	}
	p.host.SetRouteProvider(p)
	if p.cfg.EnableHello {
		task := p.host.Sched().Every(string(p.host.ID()), p.cfg.HelloInterval, func(time.Time) { p.helloTick() })
		p.mu.Lock()
		p.hello = task
		p.mu.Unlock()
	}
	return nil
}

// Stop implements routing.Protocol.
func (p *Protocol) Stop() {
	p.mu.Lock()
	if !p.started {
		p.mu.Unlock()
		return
	}
	p.started = false
	pending := p.pending
	p.pending = make(map[netem.NodeID]*discovery)
	hello := p.hello
	p.hello = nil
	p.mu.Unlock()
	hello.Stop()
	// finishDiscovery is idempotent, so a retry step that fires late is
	// harmless.
	for dst, d := range pending {
		p.finishDiscovery(dst, d, "stopped")
	}
}

// Stats returns a snapshot of protocol counters.
func (p *Protocol) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Routes implements routing.Protocol.
func (p *Protocol) Routes() []routing.Entry {
	return p.table.Snapshot(p.clk.Now())
}

// NextHop implements netem.RouteProvider. A route asked for is about to carry
// a packet, so asking refreshes it and the route to its next hop for another
// ActiveRouteTimeout (RFC 3561 §6.2).
func (p *Protocol) NextHop(dst netem.NodeID) (netem.NodeID, bool) {
	now := p.clk.Now()
	e, ok := p.table.Use(dst, now, now.Add(p.cfg.ActiveRouteTimeout))
	if !ok {
		return "", false
	}
	return e.NextHop, true
}

// RequestRoute implements netem.RouteProvider: it floods an RREQ and invokes
// done once a route is installed or all retries are exhausted.
func (p *Protocol) RequestRoute(dst netem.NodeID, done func(bool)) {
	if _, ok := p.NextHop(dst); ok {
		done(true)
		return
	}
	p.mu.Lock()
	if !p.started {
		p.mu.Unlock()
		done(false)
		return
	}
	if d, ok := p.pending[dst]; ok {
		d.callbacks = append(d.callbacks, done)
		p.mu.Unlock()
		return
	}
	d := &discovery{
		span:      p.obs.StartSpan("", obs.PhaseRouteDiscovery, string(p.host.ID())),
		start:     p.clk.Now(),
		callbacks: []func(bool){done},
	}
	p.pending[dst] = d
	p.mu.Unlock()
	p.discover(dst, d, p.cfg.attemptPlan())
}

type rreqAttempt struct {
	ttl     uint8
	timeout time.Duration
}

// attemptPlan returns the RREQ schedule: expanding rings first (when
// enabled), then network-wide floods for the configured retries.
func (c Config) attemptPlan() []rreqAttempt {
	var plan []rreqAttempt
	if c.ExpandingRing {
		for _, ttl := range []uint8{2, 5} {
			// Ring traversal time scales with the ring radius, with a
			// floor so tiny rings still get a sane round trip.
			t := c.DiscoveryTimeout * time.Duration(ttl) / 8
			if floor := c.DiscoveryTimeout / 4; t < floor {
				t = floor
			}
			plan = append(plan, rreqAttempt{ttl: ttl, timeout: t})
		}
	}
	for range 1 + rreqRetries {
		plan = append(plan, rreqAttempt{ttl: netDiameter, timeout: c.DiscoveryTimeout})
	}
	return plan
}

// discover sends the next RREQ of plan and re-arms itself for the attempt's
// timeout; when the plan runs out the discovery has failed. Success is
// installRoute's to report, the moment the route lands, and Stop ends every
// pending discovery: finishDiscovery's idempotence arbitrates between the
// three.
func (p *Protocol) discover(dst netem.NodeID, d *discovery, plan []rreqAttempt) {
	p.mu.Lock()
	finished := d.finished
	p.mu.Unlock()
	if finished {
		return
	}
	if len(plan) == 0 {
		p.finishDiscovery(dst, d, "failed")
		return
	}
	p.sendRREQ(dst, plan[0].ttl)
	p.host.Sched().After(string(p.host.ID()), plan[0].timeout, func(time.Time) { p.discover(dst, d, plan[1:]) })
}

// discoveryOK is the outcome that means a route was found.
const discoveryOK = "ok"

func (p *Protocol) finishDiscovery(dst netem.NodeID, d *discovery, outcome string) {
	ok := outcome == discoveryOK
	p.mu.Lock()
	if d.finished {
		p.mu.Unlock()
		return
	}
	d.finished = true
	if p.pending[dst] == d {
		delete(p.pending, dst)
	}
	cbs := d.callbacks
	d.callbacks = nil
	if ok {
		p.stats.Discovered++
	} else {
		p.stats.Failed++
	}
	p.mu.Unlock()
	if d.span.Active() {
		if ok {
			p.obsDelay.Observe(p.clk.Now().Sub(d.start))
		}
		d.span.End("aodv dst=" + string(dst) + " " + outcome)
	}
	for _, cb := range cbs {
		cb(ok)
	}
}

func (p *Protocol) sendRREQ(dst netem.NodeID, ttl uint8) {
	p.mu.Lock()
	p.seq++
	p.rreqID++
	m := &RREQ{
		ID:         p.rreqID,
		TTL:        ttl,
		Orig:       p.host.ID(),
		OrigSeq:    p.seq,
		Dst:        dst,
		UnknownSeq: true,
	}
	p.stats.RREQSent++
	p.mu.Unlock()
	p.send(netem.Broadcast, m.AppendTo(p.begin(KindRREQ, m.wireLen())))
}

// begin starts a control frame of the given kind for a body of bodyLen bytes;
// the caller appends the body and hands the frame to send.
func (p *Protocol) begin(kind uint8, bodyLen int) []byte {
	return p.framer.Begin(routing.ProtoAODV, kind, bodyLen)
}

// send offers the piggyback handler the frame's extension slot and transmits
// it. A frame the medium refuses is a lost frame.
func (p *Protocol) send(dst netem.NodeID, frame []byte) {
	p.mu.Lock()
	pb := p.pb
	p.mu.Unlock()
	_ = p.framer.Send(p.host, pb, dst, KindName(frame[1]), frame)
}

func (p *Protocol) onFrame(f netem.Frame) {
	var env routing.Envelope
	if err := routing.ParseEnvelopeInto(&env, f.Payload); err != nil || env.Proto != routing.ProtoAODV {
		return
	}
	p.touchNeighbor(f.Src)
	if len(env.Ext) > 0 {
		p.mu.Lock()
		pb := p.pb
		p.mu.Unlock()
		if pb != nil {
			pb.Incoming(routing.Incoming{
				From:  f.Src,
				Proto: env.Proto,
				Kind:  env.Kind,
				Kind2: KindName(env.Kind),
				Ext:   env.Ext,
			})
		}
	}
	switch env.Kind {
	case KindRREQ:
		if m, err := ParseRREQ(env.Body); err == nil {
			p.onRREQ(f.Src, m)
		}
	case KindRREP:
		if m, err := ParseRREP(env.Body); err == nil {
			p.onRREP(f.Src, m)
		}
	case KindRERR:
		if m, err := ParseRERR(env.Body); err == nil {
			p.onRERR(f.Src, m)
		}
	case KindHello:
		// touchNeighbor above already recorded liveness.
	}
}

// touchNeighbor refreshes the 1-hop route and liveness record for a
// neighbour we just heard. The route keeps the freshest sequence number the
// table knew for the neighbour (Table.Upsert never lowers one): at 0, any
// longer route that carries one would count as fresher and displace the
// direct link.
func (p *Protocol) touchNeighbor(nb netem.NodeID) {
	now := p.clk.Now()
	p.mu.Lock()
	p.neighbors[nb] = now
	p.mu.Unlock()
	p.table.Upsert(routing.Entry{
		Dst:     nb,
		NextHop: nb,
		Hops:    1,
		Expires: now.Add(p.neighborLifetime()),
	})
}

func (p *Protocol) neighborLifetime() time.Duration {
	if p.cfg.EnableHello {
		return time.Duration(p.cfg.AllowedHelloLoss+1) * p.cfg.HelloInterval
	}
	return p.cfg.ActiveRouteTimeout
}

func (p *Protocol) onRREQ(from netem.NodeID, m *RREQ) {
	now := p.clk.Now()
	if m.Orig == p.host.ID() {
		return // our own flood echoed back
	}
	// A copy of an RREQ already handled is dropped before it touches a route
	// (RFC 3561 §6.5): the next relay's echo offers a longer reverse route
	// with the same sequence number.
	key, nowNs := seenKey{m.Orig, m.ID}, now.UnixNano()
	p.mu.Lock()
	p.forgetSeenLocked(nowNs)
	if at, dup := p.seen[key]; dup && nowNs < at {
		p.mu.Unlock()
		return
	}
	if p.seen == nil {
		p.seen = make(map[seenKey]int64)
	}
	at := nowNs + int64(2*p.cfg.DiscoveryTimeout*time.Duration(1+rreqRetries))
	p.seen[key] = at
	p.seenQ.Push(key, at)
	p.mu.Unlock()
	// Install/refresh the reverse route toward the originator.
	p.installRoute(m.Orig, from, int(m.HopCount)+1, m.OrigSeq)

	if m.Dst == p.host.ID() {
		// We are the destination: answer with our own sequence number.
		p.mu.Lock()
		if m.DstSeq > p.seq {
			p.seq = m.DstSeq
		}
		p.seq++
		rep := &RREP{
			HopCount:   0,
			Orig:       m.Orig,
			Dst:        p.host.ID(),
			DstSeq:     p.seq,
			LifetimeMs: uint32(p.cfg.ActiveRouteTimeout / time.Millisecond),
		}
		p.stats.RREPSent++
		p.mu.Unlock()
		p.send(from, rep.AppendTo(p.begin(KindRREP, rep.wireLen())))
		return
	}
	// Intermediate node with a fresh-enough route may answer on behalf of
	// the destination.
	if e, ok := p.table.Lookup(m.Dst, now); ok && !m.UnknownSeq && e.SeqNo >= m.DstSeq && e.SeqNo > 0 {
		rep := &RREP{
			HopCount:   uint8(e.Hops),
			Orig:       m.Orig,
			Dst:        m.Dst,
			DstSeq:     e.SeqNo,
			LifetimeMs: uint32(p.cfg.ActiveRouteTimeout / time.Millisecond),
		}
		p.mu.Lock()
		p.stats.RREPSent++
		p.mu.Unlock()
		p.send(from, rep.AppendTo(p.begin(KindRREP, rep.wireLen())))
		return
	}
	// Otherwise keep flooding.
	if m.TTL <= 1 {
		return
	}
	fwd := *m
	fwd.TTL--
	fwd.HopCount++
	p.mu.Lock()
	p.stats.RREQFwd++
	p.mu.Unlock()
	p.send(netem.Broadcast, fwd.AppendTo(p.begin(KindRREQ, fwd.wireLen())))
}

func (p *Protocol) onRREP(from netem.NodeID, m *RREP) {
	// Install the forward route toward the destination.
	p.installRoute(m.Dst, from, int(m.HopCount)+1, m.DstSeq)
	if m.Orig == p.host.ID() {
		return // discovery completed; installRoute signalled it
	}
	// Forward along the reverse route toward the originator.
	e, ok := p.table.Lookup(m.Orig, p.clk.Now())
	if !ok {
		return
	}
	fwd := *m
	fwd.HopCount++
	p.mu.Lock()
	p.stats.RREPFwd++
	p.mu.Unlock()
	p.send(e.NextHop, fwd.AppendTo(p.begin(KindRREP, fwd.wireLen())))
}

func (p *Protocol) onRERR(from netem.NodeID, m *RERR) {
	var cascade []Unreachable
	now := p.clk.Now()
	for _, u := range m.Unreachable {
		if e, ok := p.table.Lookup(u.Dst, now); ok && e.NextHop == from {
			p.table.Remove(u.Dst)
			cascade = append(cascade, u)
		}
	}
	if len(cascade) > 0 {
		p.mu.Lock()
		p.stats.RERRSent++
		p.mu.Unlock()
		rerr := &RERR{Unreachable: cascade}
		p.send(netem.Broadcast, rerr.AppendTo(p.begin(KindRERR, rerr.wireLen())))
	}
}

// installRoute applies the AODV freshness rule and signals any discovery
// waiting for this destination.
func (p *Protocol) installRoute(dst, nextHop netem.NodeID, hops int, seq uint32) {
	if dst == p.host.ID() {
		return
	}
	p.table.UpsertIfFresher(routing.Entry{
		Dst:     dst,
		NextHop: nextHop,
		Hops:    hops,
		SeqNo:   seq,
		Expires: p.clk.Now().Add(p.cfg.ActiveRouteTimeout),
	})
	p.mu.Lock()
	d := p.pending[dst]
	p.mu.Unlock()
	if d != nil {
		p.finishDiscovery(dst, d, discoveryOK)
	}
}

// forgetSeenLocked drops the duplicate-set keys whose hold has passed, oldest
// first, and the set's storage once a burst has drained (see
// clock.ExpiryQueue.Trim). A key heard again after its hold is queued again,
// so a popped key goes only if its own deadline has passed too. It runs on
// every insert and on the HELLO beat. Caller holds p.mu.
func (p *Protocol) forgetSeenLocked(nowNs int64) {
	for p.seenQ.Len() > 0 {
		k, at := p.seenQ.Next()
		if nowNs < at {
			return
		}
		p.seenQ.Pop()
		if e, ok := p.seen[k]; ok && nowNs >= e {
			delete(p.seen, k)
		}
	}
	if p.seenQ.Trim() {
		p.seen = nil
	}
}

// helloTick is one hello-beacon round: broadcast a hello with the current
// sequence number, then reap neighbours that have gone quiet.
func (p *Protocol) helloTick() {
	p.mu.Lock()
	seq := p.seq
	p.stats.HelloSent++
	p.forgetSeenLocked(p.clk.Now().UnixNano())
	p.mu.Unlock()
	m := Hello{Seq: seq}
	p.send(netem.Broadcast, m.AppendTo(p.begin(KindHello, m.wireLen())))
	p.expireNeighbors()
}

// expireNeighbors detects broken links from missed hellos and emits RERRs
// for routes through the lost neighbours, in neighbour-ID order.
func (p *Protocol) expireNeighbors() {
	now := p.clk.Now()
	deadline := time.Duration(p.cfg.AllowedHelloLoss) * p.cfg.HelloInterval
	var lost []netem.NodeID
	p.mu.Lock()
	for nb, last := range p.neighbors {
		if now.Sub(last) > deadline {
			delete(p.neighbors, nb)
			lost = append(lost, nb)
		}
	}
	p.mu.Unlock()
	slices.Sort(lost)
	for _, nb := range lost {
		removed := p.table.RemoveByNextHop(nb)
		if len(removed) == 0 {
			continue
		}
		rerr := &RERR{}
		for _, e := range removed {
			rerr.Unreachable = append(rerr.Unreachable, Unreachable{Dst: e.Dst, Seq: e.SeqNo + 1})
		}
		p.mu.Lock()
		p.stats.RERRSent++
		p.mu.Unlock()
		p.send(netem.Broadcast, rerr.AppendTo(p.begin(KindRERR, rerr.wireLen())))
	}
}
