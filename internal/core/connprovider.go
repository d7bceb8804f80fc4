package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/obs"
	"siphoc/internal/slp"
)

// ErrNoGateway reports that gateway discovery exhausted its retry budget
// without acquiring Internet connectivity; most rounds past the third only read
// the cache and last one ProbeInterval, so it comes sooner than rounds that all
// query would. The provider keeps probing in the background, so the condition
// clears itself when a gateway appears; the typed error exists so callers
// waiting on attachment fail fast instead of hanging.
var ErrNoGateway = errors.New("core: no gateway available")

// ConnProviderConfig tunes the Connection Provider.
type ConnProviderConfig struct {
	// ProbeInterval is how long the provider waits after a round before it
	// looks for a gateway again when detached, or pings it when attached
	// (default 500ms). The first round runs at Start. A detached round reads
	// the SLP cache, and only rounds 0, 1, 2, 4, 8, 16 and every 32nd since the
	// last attach then query the network (queryRound); a gateway advert
	// installed in between runs the next round at once.
	ProbeInterval time.Duration
	// LookupTimeout bounds a query round's wildcard SLP lookup (default 300ms).
	LookupTimeout time.Duration
	// AckTimeout bounds the tunnel OPEN/PING round trip (default 1s).
	AckTimeout time.Duration
	// MaxLookupRetries caps consecutive failed gateway-acquisition rounds
	// (cache read or SLP query, plus OPEN attempts); once exhausted, LastError
	// and WaitAttached report ErrNoGateway. Probing continues regardless, so a
	// gateway appearing later still attaches automatically. Default 8;
	// negative disables the cap.
	MaxLookupRetries int
	// BlacklistTTL quarantines a gateway after a refused/timed-out OPEN or a
	// dead tunnel, so failover skips it while its stale SLP advert lingers
	// (default 5s; <=0 disables blacklisting).
	BlacklistTTL time.Duration
	// MissedProbeLimit is how many consecutive ping timeouts it takes to
	// declare an attached gateway dead (default 1 — a single missed ping
	// detaches, the fastest detection). Saturated deployments raise it:
	// under heavy load a ping round trip routinely exceeds AckTimeout
	// without the gateway being gone, and one spurious detach costs a
	// blacklist + failover + upstream re-registration storm.
	MissedProbeLimit int
	// IsLocal classifies node IDs as MANET-internal; traffic to other
	// destinations is tunnelled. Default: IDs with no letters (dotted
	// numeric MANET addresses) are local, names like "voicehoc.ch" are
	// Internet hosts.
	IsLocal func(netem.NodeID) bool
	// Obs records attach spans and tunnel counters. Nil disables.
	Obs *obs.Observer
}

func (c ConnProviderConfig) withDefaults() ConnProviderConfig {
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.LookupTimeout == 0 {
		c.LookupTimeout = 300 * time.Millisecond
	}
	if c.AckTimeout == 0 {
		c.AckTimeout = time.Second
	}
	if c.MaxLookupRetries == 0 {
		c.MaxLookupRetries = 8
	}
	if c.BlacklistTTL == 0 {
		c.BlacklistTTL = 5 * time.Second
	}
	if c.MissedProbeLimit == 0 {
		c.MissedProbeLimit = 1
	}
	if c.IsLocal == nil {
		c.IsLocal = func(id netem.NodeID) bool {
			return !strings.ContainsFunc(string(id), func(r rune) bool {
				return r != '.' && (r < '0' || r > '9')
			})
		}
	}
	return c
}

// ConnStats counts Connection Provider activity. All fields are safe to
// snapshot while the provider runs.
type ConnStats struct {
	Attaches        int64 // successful tunnel attachments
	Detaches        int64 // losses of connectivity (ping failure or stop)
	AttachFails     int64 // OPEN attempts that timed out or were refused
	FramesOut       int64 // datagrams tunnelled out to the gateway
	FramesIn        int64 // datagrams received through the tunnel
	Failovers       int64 // re-attachments after losing a live gateway
	LastAttachGW    string
	LastAttachDur   time.Duration // duration of the most recent attach
	LastFailoverDur time.Duration // gateway loss -> re-attach, most recent
}

// connCounters is the live, atomically updated form of ConnStats.
type connCounters struct {
	attaches    atomic.Int64
	detaches    atomic.Int64
	attachFails atomic.Int64
	framesOut   atomic.Int64
	framesIn    atomic.Int64
	failovers   atomic.Int64
}

// ConnectionProvider manages this node's attachment to the Internet: it
// periodically checks MANET SLP for a gateway service, opens a layer-2
// tunnel to the gateway it finds, and transparently routes Internet-bound
// traffic through it (paper §2, Connection Provider).
//
// The provider owns no goroutine. Its probe cycle — idle, querying SLP,
// opening candidate i, pinging the gateway — is moved on by the tunnel
// messages its port handler is given, by the SLP agent's answer, by a gateway
// advert installed in the agent's cache and by one timer task on the host's
// shard. An SLP answer or advert can arrive on another shard and Stop on any
// goroutine, so every step takes mu and checks that the cycle still waits
// where the step left it.
//
// An idle round allocates nothing: the task, the lookup's callback and the
// advert watcher are bound once, candidates are listed into a slice kept from
// round to round, and every tunnel message is built in the send scratch.
type ConnectionProvider struct {
	host  *netem.Host
	agent ServiceDirectory
	cfg   ConnProviderConfig
	clk   clock.Clock
	sched *clock.Scheduler
	key   string // the host's shard key

	conn *netem.Conn
	tx   tunnelTx
	// rx is the header a tunnelled datagram is decoded into; conn serializes
	// onDatagram, so one is enough.
	rx netem.Datagram

	mu       sync.Mutex
	attached bool
	gw       tunnelPeer // the gateway in use; zero when detached
	watchers []func(bool)
	started  bool
	closed   bool
	// changed is opened, and replaced, whenever attached, lastErr or closed
	// changes: what WaitAttached waits on.
	changed *clock.Gate

	// The cycle waits on time through timer, queued for the end of the
	// current wait and moved by every step: the next probe when expect is 0,
	// otherwise the time-out of the OPEN or PING in flight, whose answer is
	// the one message admitted — kind expect from the gateway asked. While
	// querying, it waits on the wildcard SLP lookup instead, whose answer is
	// lookupDone (onLookup, bound once).
	timer      clock.Task
	expect     uint8
	asked      tunnelPeer
	querying   bool
	lookupDone func(slp.Service, error)
	// cands are the gateways of this attach round, freshest first; next
	// indexes the one to try should asked not answer. Both it and services,
	// the scratch they are read from, are reused from round to round.
	cands       []tunnelPeer
	next        int
	services    []slp.Service
	attachStart time.Time
	attachSpan  obs.SpanHandle

	lastAttachGW  string
	lastAttachDur time.Duration
	// blacklist quarantines gateways that refused an OPEN or died mid-tunnel
	// until the per-entry deadline (lazily expired in gatewayCandidates).
	blacklist map[netem.NodeID]time.Time
	// lookupFails counts consecutive failed acquisition rounds, which
	// numbers them for queryRound; at the MaxLookupRetries cap, lastErr
	// becomes ErrNoGateway. Both reset on a successful attach.
	lookupFails int
	// missedProbes counts consecutive ping timeouts on the live tunnel;
	// at MissedProbeLimit the gateway is declared lost. Reset by any pong
	// and on attach.
	missedProbes int
	lastErr      error
	// detachedAt stamps the moment a live gateway was lost; the next
	// successful attach turns it into a failover-latency sample.
	detachedAt      time.Time
	lastFailoverDur time.Duration

	stats       connCounters
	obs         *obs.Observer
	obsFailover *obs.Histogram
}

// NewConnectionProvider creates the provider; agent is the node's MANET SLP
// agent used for gateway discovery.
func NewConnectionProvider(host *netem.Host, agent ServiceDirectory, cfg ConnProviderConfig) *ConnectionProvider {
	cfg = cfg.withDefaults()
	p := &ConnectionProvider{
		host:        host,
		agent:       agent,
		cfg:         cfg,
		clk:         host.Clock(),
		sched:       host.Sched(),
		key:         string(host.ID()),
		obs:         cfg.Obs,
		obsFailover: cfg.Obs.Histogram("connp.failover.delay", nil),
		blacklist:   make(map[netem.NodeID]time.Time),
		changed:     new(clock.Gate),
	}
	p.changed.Init(p.clk)
	p.timer.Init(p.onTimer, nil)
	p.lookupDone = p.onLookup
	agent.OnInstall(p.onGatewayAdvert)
	return p
}

// Stats returns a snapshot of the provider counters.
func (p *ConnectionProvider) Stats() ConnStats {
	p.mu.Lock()
	gw, dur, fdur := p.lastAttachGW, p.lastAttachDur, p.lastFailoverDur
	p.mu.Unlock()
	return ConnStats{
		Attaches:        p.stats.attaches.Load(),
		Detaches:        p.stats.detaches.Load(),
		AttachFails:     p.stats.attachFails.Load(),
		FramesOut:       p.stats.framesOut.Load(),
		FramesIn:        p.stats.framesIn.Load(),
		Failovers:       p.stats.failovers.Load(),
		LastAttachGW:    gw,
		LastAttachDur:   dur,
		LastFailoverDur: fdur,
	}
}

// Start begins gateway discovery: the first probe runs now, on the caller's
// goroutine, and the cycle goes on on the host's shard.
func (p *ConnectionProvider) Start() error {
	p.mu.Lock()
	if p.started {
		p.mu.Unlock()
		return fmt.Errorf("core: connection provider already started")
	}
	conn, err := p.host.Listen(0)
	if err != nil {
		p.mu.Unlock()
		return err
	}
	p.started = true
	p.conn = conn
	conn.Handle(p.onDatagram)
	p.probe()
	return nil
}

// Stop detaches and terminates the provider.
func (p *ConnectionProvider) Stop() {
	p.mu.Lock()
	if !p.started || p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.timer.Stop()
	p.signalChange()
	attached, gw := p.attached, p.gw
	p.mu.Unlock()
	if attached {
		_ = p.tx.send(p.conn, tunnelMsg{Kind: tunClose}, gw)
	}
	p.detach()
	p.conn.Close()
}

// Attached reports whether the node currently has Internet connectivity.
func (p *ConnectionProvider) Attached() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.attached
}

// Gateway returns the gateway node currently in use ("" when detached).
func (p *ConnectionProvider) Gateway() netem.NodeID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gw.node
}

// OnChange registers fn to be called when attachment state flips. fn runs on
// a scheduler worker and must not block.
func (p *ConnectionProvider) OnChange(fn func(attached bool)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.watchers = append(p.watchers, fn)
}

func (p *ConnectionProvider) notify(attached bool) {
	p.mu.Lock()
	watchers := slices.Clone(p.watchers)
	p.mu.Unlock()
	for _, fn := range watchers {
		fn(attached)
	}
}

// signalChange wakes every WaitAttached. Caller holds p.mu.
func (p *ConnectionProvider) signalChange() {
	old := p.changed
	p.changed = new(clock.Gate)
	p.changed.Init(p.clk)
	old.Open()
}

// endRound ends whatever the cycle waited for and arms the next probe
// ProbeInterval after the round that just ended, the cadence of a loop that
// sleeps between rounds. Caller holds p.mu.
func (p *ConnectionProvider) endRound() {
	p.expect, p.asked = 0, tunnelPeer{}
	p.sched.At(p.key, &p.timer, p.clk.Now().Add(p.cfg.ProbeInterval))
}

// ask waits AckTimeout for the answer of kind expect from the gateway asked,
// the request for which the caller sends. Caller holds p.mu.
func (p *ConnectionProvider) ask(expect uint8, asked tunnelPeer) {
	p.expect, p.asked = expect, asked
	p.sched.At(p.key, &p.timer, p.clk.Now().Add(p.cfg.AckTimeout))
}

// onTimer is the timer's run: the current wait has run out. With no request
// in flight the next probe is due; otherwise the OPEN or PING has gone
// unanswered for AckTimeout.
func (p *ConnectionProvider) onTimer(time.Time) {
	p.mu.Lock()
	switch {
	case p.closed:
		p.mu.Unlock()
	case p.expect == 0:
		p.probe()
	case p.expect == tunPong:
		p.pingTimedOut()
	default:
		p.openFailed()
	}
}

// probe starts a round: a ping of the gateway when attached, otherwise an
// attempt to find and open one. A request that cannot be sent is one more
// that goes unanswered: its time-out deals with it. Caller holds p.mu, which
// probe releases.
func (p *ConnectionProvider) probe() {
	if p.attached {
		gw := p.gw
		p.ask(tunPong, gw)
		p.mu.Unlock()
		_ = p.tx.send(p.conn, tunnelMsg{Kind: tunPing}, gw)
		return
	}
	if p.gatewayCandidates(); len(p.cands) > 0 {
		p.startAttach()
		p.openNext()
		return
	}
	if !queryRound(p.lookupFails) {
		p.openNext() // fails the round: the cache was all it asked
		return
	}
	// Nothing cached: issue a wildcard query and go on when it is answered,
	// as it always is, at its own deadline at the latest. The answer may only
	// contain blacklisted gateways, in which case the round still fails.
	p.startAttach()
	p.querying = true
	p.mu.Unlock()
	p.agent.LookupAsync(GatewayServiceType, "", p.cfg.LookupTimeout, p.lookupDone)
}

// backoffPeriod is the query period, in rounds, of a provider that has long
// found no gateway.
const backoffPeriod = 32

// queryRound reports whether failed round n of a detached provider with no
// gateway cached sends a wildcard query: rounds 0, 1, 2, 4, 8, 16, then every
// backoffPeriod-th. The gossip brings every advert to the cache anyway, and
// wakes the provider (onGatewayAdvert); the queries are for what it cannot
// bring, such as SLP's multicast mode, which gossips nothing.
func queryRound(n int) bool {
	return n%backoffPeriod == 0 || n < backoffPeriod && n&(n-1) == 0
}

// onGatewayAdvert runs when the SLP cache installs an advert: a detached
// provider between rounds runs its next one now (mid-round, its wait ends it).
func (p *ConnectionProvider) onGatewayAdvert(stype string) {
	if stype != GatewayServiceType {
		return
	}
	p.mu.Lock()
	if p.started && !p.closed && !p.attached && p.expect == 0 && !p.querying {
		p.sched.At(p.key, &p.timer, p.clk.Now())
	}
	p.mu.Unlock()
}

// startAttach opens an attach span. It covers the whole acquisition: SLP
// gateway discovery plus the tunnel OPEN handshake; a round that only reads
// the cache and finds nothing opens none. It is node-scoped (no Call-ID) and
// is stitched into call traces by time proximity. Caller holds p.mu.
func (p *ConnectionProvider) startAttach() {
	p.attachSpan = p.obs.StartSpan("", obs.PhaseGatewayAttach, p.key)
	p.attachStart = p.clk.Now()
}

// onLookup takes the answer to the round's wildcard lookup.
func (p *ConnectionProvider) onLookup(_ slp.Service, err error) {
	p.mu.Lock()
	if p.closed || !p.querying {
		p.mu.Unlock()
		return
	}
	p.querying = false
	if err == nil {
		p.gatewayCandidates()
	}
	p.openNext()
}

// openNext sends OPEN to the next candidate; they are tried
// freshest-advert-first, so a dead gateway whose stale advert still lingers in
// the cache only costs one OPEN timeout before the live one is used. With
// none left the round has failed. Caller holds p.mu, which openNext releases.
func (p *ConnectionProvider) openNext() {
	if p.next == len(p.cands) {
		// One more failed round. Once the budget is spent ErrNoGateway is
		// surfaced via LastError/WaitAttached; probing goes on regardless, so
		// later rounds can still recover.
		p.lookupFails++
		if budget := p.cfg.MaxLookupRetries; budget >= 0 && p.lookupFails >= budget && p.lastErr == nil {
			p.lastErr = ErrNoGateway
			p.signalChange()
		}
		p.endRound()
		p.mu.Unlock()
		return
	}
	gw := p.cands[p.next]
	p.next++
	p.ask(tunOpenAck, gw)
	p.mu.Unlock()
	_ = p.tx.send(p.conn, tunnelMsg{Kind: tunOpen}, gw)
}

// openFailed handles an OPEN that was refused or timed out: the candidate is
// quarantined, so that the next round moves straight to an alternative, and
// the next one is tried. Caller holds p.mu, which openFailed releases.
func (p *ConnectionProvider) openFailed() {
	p.blacklistGateway(p.asked.node)
	p.stats.attachFails.Add(1)
	p.openNext()
}

// onAnswer handles a tunOpenAck or tunPong. Only the answer the cycle waits
// for is listened to, and only from the node and port that were asked: a
// gateway that answers after its OPEN timed out has been given up on, and its
// ACK says nothing about the candidate being opened now. A pinged gateway that
// answers as it answers a refused OPEN holds no tunnel for this node (see
// reopen).
func (p *ConnectionProvider) onAnswer(msg *tunnelMsg, from tunnelPeer) {
	p.mu.Lock()
	switch {
	case p.closed || from != p.asked:
		p.mu.Unlock()
	case msg.Kind == tunPong && p.expect == tunPong:
		p.missedProbes = 0
		p.endRound()
		p.mu.Unlock()
	case msg.Kind != tunOpenAck:
		p.mu.Unlock()
	case p.expect == tunPong && !msg.OK:
		p.reopen()
	case p.expect != tunOpenAck:
		p.mu.Unlock()
	case !msg.OK:
		p.openFailed()
	default:
		p.attach(from)
	}
}

// attach completes the OPEN the gateway from acknowledged. Caller holds
// p.mu, which attach releases.
func (p *ConnectionProvider) attach(from tunnelPeer) {
	now := p.clk.Now()
	p.attached = true
	p.gw = from
	p.lastAttachGW = string(from.node)
	p.lastAttachDur = now.Sub(p.attachStart)
	p.lookupFails = 0
	p.missedProbes = 0
	p.lastErr = nil
	var failover time.Duration
	if !p.detachedAt.IsZero() {
		failover = now.Sub(p.detachedAt)
		p.detachedAt = time.Time{}
		p.lastFailoverDur = failover
	}
	span := p.attachSpan
	p.endRound()
	p.signalChange()
	p.mu.Unlock()
	p.stats.attaches.Add(1)
	if failover > 0 {
		p.stats.failovers.Add(1)
		p.obsFailover.Observe(failover)
	}
	if span.Active() {
		span.End("gw=" + string(from.node))
	}
	p.host.SetDefaultHandler(p.tunnelOut)
	p.notify(true)
}

// reopen handles a gateway that holds no tunnel for this node — it restarted,
// or evicted the client — and says so in answer to a PING. The gateway is
// alive, so it is not quarantined: the provider detaches and sends OPEN to it
// at once. Caller holds p.mu, which reopen releases.
func (p *ConnectionProvider) reopen() {
	gw := p.gw
	p.attached, p.gw = false, tunnelPeer{}
	p.detachedAt = p.clk.Now()
	p.startAttach()
	p.cands, p.next = append(p.cands[:0], gw), 0
	p.openNext()
	p.stats.detaches.Add(1)
	p.host.SetDefaultHandler(nil)
	p.notify(false)
}

// pingTimedOut counts a PING that got no PONG within AckTimeout against the
// live tunnel; at MissedProbeLimit the gateway is lost, and the next probe
// looks for another. Caller holds p.mu, which pingTimedOut releases.
func (p *ConnectionProvider) pingTimedOut() {
	p.missedProbes++
	lost, gw := p.missedProbes >= p.cfg.MissedProbeLimit, p.asked.node
	p.endRound()
	p.mu.Unlock()
	if lost {
		p.gatewayLost(gw)
	}
}

// blacklistGateway quarantines gw for the configured TTL. Caller holds p.mu.
func (p *ConnectionProvider) blacklistGateway(gw netem.NodeID) {
	if p.cfg.BlacklistTTL > 0 {
		p.blacklist[gw] = p.clk.Now().Add(p.cfg.BlacklistTTL)
	}
}

// Blacklisted lists currently quarantined gateways, sorted.
func (p *ConnectionProvider) Blacklisted() []netem.NodeID {
	now := p.clk.Now()
	p.mu.Lock()
	out := make([]netem.NodeID, 0, len(p.blacklist))
	for gw, until := range p.blacklist {
		if now.Before(until) {
			out = append(out, gw)
		}
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LastError returns ErrNoGateway once the acquisition budget has been spent
// without attaching, nil otherwise. It clears on the next successful attach.
func (p *ConnectionProvider) LastError() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastErr
}

// WaitAttached blocks until the provider attaches (nil), the acquisition
// budget is exhausted, or the timeout elapses. Both failure returns satisfy
// errors.Is(err, ErrNoGateway).
func (p *ConnectionProvider) WaitAttached(timeout time.Duration) error {
	deadline := p.clk.Now().Add(timeout)
	for {
		p.mu.Lock()
		attached, lastErr, closed, changed := p.attached, p.lastErr, p.closed, p.changed
		p.mu.Unlock()
		if attached {
			return nil
		}
		if closed {
			return fmt.Errorf("core: connection provider stopped: %w", ErrNoGateway)
		}
		if lastErr != nil {
			return lastErr
		}
		if clock.Wait("core.ConnectionProvider.WaitAttached", max(deadline.Sub(p.clk.Now()), 0), changed) < 0 {
			return fmt.Errorf("core: no gateway after %v: %w", timeout, ErrNoGateway)
		}
	}
}

// tunnelPeer is a gateway's tunnel endpoint.
type tunnelPeer struct {
	node netem.NodeID
	port uint16
}

// gatewayCandidates lists reachable-looking gateways from the SLP cache into
// p.cands, freshest first, and starts the attach round at the first. Caller
// holds p.mu.
func (p *ConnectionProvider) gatewayCandidates() {
	now := p.clk.Now()
	for gw, until := range p.blacklist {
		if now.After(until) {
			delete(p.blacklist, gw)
		}
	}
	p.services = p.agent.AppendServices(p.services[:0], GatewayServiceType)
	p.cands, p.next = p.cands[:0], 0
	for i := range p.services {
		_, addr, err := slp.ParseServiceURL(p.services[i].URL)
		if err != nil {
			continue
		}
		host, portStr, ok := strings.Cut(addr, ":")
		if !ok {
			continue
		}
		port, err := strconv.ParseUint(portStr, 10, 16)
		if err != nil {
			continue
		}
		gw := netem.NodeID(host)
		if gw == p.host.ID() {
			continue // we are the gateway; nothing to tunnel
		}
		if _, quarantined := p.blacklist[gw]; quarantined {
			continue // known-dead until the blacklist TTL expires
		}
		p.cands = append(p.cands, tunnelPeer{gw, uint16(port)})
	}
	clear(p.services) // the scratch must not pin the adverts' strings
}

// gatewayLost handles a dead tunnel: quarantine the gateway, purge its SLP
// adverts locally so subsequent resolutions do not return stale routes, stamp
// the failover clock, then detach and notify watchers — unless reopen already
// detached, and stamped the clock.
func (p *ConnectionProvider) gatewayLost(gw netem.NodeID) {
	p.agent.InvalidateOrigin(gw)
	p.mu.Lock()
	p.blacklistGateway(gw)
	if p.detachedAt.IsZero() {
		p.detachedAt = p.clk.Now()
	}
	p.mu.Unlock()
	if p.detach() {
		p.notify(false)
	}
}

// detach drops the tunnel, and reports whether there was one.
func (p *ConnectionProvider) detach() bool {
	p.mu.Lock()
	wasAttached := p.attached
	p.attached = false
	p.gw = tunnelPeer{}
	p.mu.Unlock()
	if wasAttached {
		p.stats.detaches.Add(1)
		p.host.SetDefaultHandler(nil)
	}
	return wasAttached
}

// tunnelOut is the host's default handler: it encapsulates Internet-bound
// datagrams into the tunnel. MANET-local destinations are left to routing.
func (p *ConnectionProvider) tunnelOut(dg *netem.Datagram) bool {
	if p.cfg.IsLocal(dg.DstNode) {
		return false
	}
	p.mu.Lock()
	attached, gw := p.attached, p.gw
	p.mu.Unlock()
	if !attached || dg.DstNode == gw.node {
		return false // the tunnel's own messages are no tunnel traffic
	}
	return p.tx.sendDatagram(p.conn, dg, gw, &p.stats.framesOut)
}

// onDatagram serves the tunnel port, inline on the delivery that brought the
// message.
func (p *ConnectionProvider) onDatagram(dg *netem.Datagram) {
	msg, err := parseTunnelMsg(dg.Data)
	if err != nil {
		return
	}
	switch msg.Kind {
	case tunOpenAck, tunPong:
		p.onAnswer(&msg, tunnelPeer{dg.SrcNode, dg.SrcPort})
	case tunData:
		if decapsulate(&p.rx, msg.Inner, p.host.Network()) != nil {
			return
		}
		p.stats.framesIn.Add(1)
		p.host.InjectDatagram(&p.rx)
	case tunClose:
		// The gateway announced a graceful shutdown: fail over now instead
		// of waiting for the next ping to time out, or for an answer to the
		// OPEN sent when, stopping, it refused a PING (see reopen). The
		// request in flight will get no answer; its round is over.
		p.mu.Lock()
		current := !p.closed && (p.attached && dg.SrcNode == p.gw.node ||
			p.expect == tunOpenAck && dg.SrcNode == p.asked.node)
		if current && p.expect != 0 {
			p.endRound()
		}
		p.mu.Unlock()
		if current {
			p.gatewayLost(dg.SrcNode)
		}
	}
}
