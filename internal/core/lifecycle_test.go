package core

// Lifecycle tests for the Connection Provider and the Gateway Provider, the
// file slp, aodv, olsr and sip each have: on a fake clock, under -race, the
// provider's probe cycle is driven through every wait it has — idle, SLP
// lookup, OPEN, PING — and stopped in the middle of each, and what is left
// behind is counted: goroutines (none of its own to begin with) and scheduler
// tasks.

import (
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/internet"
	"siphoc/internal/netem"
	"siphoc/internal/slp"
	"siphoc/internal/testutil"
)

const (
	lcClient = netem.NodeID("10.9.0.1")
	lcGW1    = netem.NodeID("10.9.0.2")
	lcGW2    = netem.NodeID("10.9.0.3")
)

// lifecycleBed is a three-node MANET — a client in radio range of two
// would-be gateways — beside an Internet, all on one fake clock and one shard
// each. SLP runs in multicast mode over static routes, so nothing but the
// components under test owns a timer.
type lifecycleBed struct {
	t        *testing.T
	baseline int
	fake     *clock.Fake
	net      *netem.Network
	inet     *internet.Internet
	hosts    map[netem.NodeID]*netem.Host
	agents   map[netem.NodeID]*slp.Agent
	// probe is an idle Internet host, there for its view of the Internet's
	// scheduler.
	probe *netem.Host
}

func newLifecycleBed(t *testing.T) *lifecycleBed {
	t.Helper()
	b := &lifecycleBed{
		t:        t,
		baseline: runtime.NumGoroutine(),
		fake:     clock.NewFake(time.Unix(8_000_000, 0)),
		hosts:    make(map[netem.NodeID]*netem.Host),
		agents:   make(map[netem.NodeID]*slp.Agent),
	}
	b.net = netem.NewNetwork(netem.Config{BaseDelay: 500 * time.Microsecond, Clock: b.fake, Shards: 1})
	b.inet = internet.New(internet.Config{Delay: time.Millisecond, Clock: b.fake, Shards: 1})
	var err error
	if b.probe, err = b.inet.AddHost("probe.example"); err != nil {
		t.Fatal(err)
	}
	ids := []netem.NodeID{lcClient, lcGW1, lcGW2}
	for i, id := range ids {
		h, err := b.net.AddHost(id, netem.Position{X: float64(40 * i)})
		if err != nil {
			t.Fatal(err)
		}
		routes := islandRoutes{next: make(map[netem.NodeID]netem.NodeID)}
		for _, other := range ids {
			if other != id {
				routes.next[other] = other
			}
		}
		h.SetRouteProvider(routes)
		b.hosts[id] = h
		b.agents[id] = slp.NewAgent(h, slp.Config{Mode: slp.ModeMulticast})
		if err := b.agents[id].Start(); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func (b *lifecycleBed) config() ConnProviderConfig {
	return ConnProviderConfig{
		ProbeInterval: 100 * time.Millisecond,
		LookupTimeout: 200 * time.Millisecond,
		AckTimeout:    300 * time.Millisecond,
		BlacklistTTL:  2 * time.Second,
	}
}

func (b *lifecycleBed) gateway(id netem.NodeID) *GatewayProvider {
	b.t.Helper()
	gw := NewGatewayProvider(b.hosts[id], b.inet, b.agents[id], GatewayConfig{ClientTTL: time.Second})
	if err := gw.Start(); err != nil {
		b.t.Fatal(err)
	}
	return gw
}

func (b *lifecycleBed) provider(cfg ConnProviderConfig) *ConnectionProvider {
	b.t.Helper()
	cp := NewConnectionProvider(b.hosts[lcClient], b.agents[lcClient], cfg)
	if err := cp.Start(); err != nil {
		b.t.Fatal(err)
	}
	return cp
}

// expecting reports which answer the provider's cycle is waiting for.
func (p *ConnectionProvider) expecting() uint8 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.expect
}

// drained stops the agents and checks that everything the test started is
// gone: every task leaves both schedulers once its deadline has passed, and
// with the networks closed the goroutine count is back where it began.
func (b *lifecycleBed) drained() {
	b.t.Helper()
	for _, a := range b.agents {
		a.Stop()
	}
	b.fake.Sleep(time.Minute)
	if n := b.hosts[lcClient].Sched().Pending() + b.probe.Sched().Pending(); n != 0 {
		b.t.Errorf("%d tasks still queued after everything stopped", n)
	}
	b.net.Close()
	b.inet.Close()
	if err := testutil.SettleGoroutines(b.baseline, 0, 5*time.Second); err != nil {
		b.t.Error(err)
	}
}

// TestLifecycleFailover walks the attached half of the cycle: attach, ping,
// the gateway's graceful Stop (tunClose), fail-over to a second gateway,
// blacklist expiry, Stop.
func TestLifecycleFailover(t *testing.T) {
	b := newLifecycleBed(t)
	gw1 := b.gateway(lcGW1)
	cp := b.provider(b.config())

	// A waiter that arrived first is released by the attach itself.
	waited := make(chan error, 1)
	go func() { waited <- cp.WaitAttached(time.Hour) }()
	if err := cp.WaitAttached(5 * time.Second); err != nil || cp.Gateway() != lcGW1 {
		t.Fatalf("WaitAttached = %v, attached to %q, want %s", err, cp.Gateway(), lcGW1)
	}
	if err := <-waited; err != nil {
		t.Fatalf("WaitAttached = %v after the attach", err)
	}
	if got := gw1.Clients(); !slices.Equal(got, []netem.NodeID{lcClient}) {
		t.Fatalf("gateway clients = %v", got)
	}

	// Ten probe intervals of pings: each PONG is matched to its PING, or the
	// first time-out would detach (MissedProbeLimit is 1) — and the gateway
	// would evict a client whose pings it did not see (ClientTTL is 1 s).
	b.fake.Sleep(10 * b.config().ProbeInterval)
	if st := cp.Stats(); !cp.Attached() || st.Detaches != 0 || len(gw1.Clients()) != 1 {
		t.Fatalf("after ten pings: attached = %v, stats %+v, gateway clients %v", cp.Attached(), st, gw1.Clients())
	}

	// The gateway stops gracefully: tunClose detaches at once and blacklists
	// it, and the next round finds the other one by asking the network.
	gw2 := b.gateway(lcGW2)
	gw1.Stop()
	b.fake.Sleep(10 * time.Millisecond)
	if cp.Attached() {
		t.Fatal("still attached after the gateway's tunClose")
	}
	if got := cp.Blacklisted(); !slices.Equal(got, []netem.NodeID{lcGW1}) {
		t.Fatalf("blacklist = %v, want the stopped gateway", got)
	}
	if err := cp.WaitAttached(5 * time.Second); err != nil || cp.Gateway() != lcGW2 {
		t.Fatalf("fail-over: WaitAttached = %v, attached to %q, want %s", err, cp.Gateway(), lcGW2)
	}
	if st := cp.Stats(); st.Failovers != 1 || st.Attaches != 2 || st.LastFailoverDur <= 0 {
		t.Fatalf("stats after fail-over = %+v", st)
	}
	b.fake.Sleep(2 * b.config().BlacklistTTL)
	if len(cp.Blacklisted()) != 0 {
		t.Fatalf("blacklist = %v after its TTL", cp.Blacklisted())
	}

	cp.Stop()
	if cp.Attached() || !errors.Is(cp.WaitAttached(time.Hour), ErrNoGateway) {
		t.Fatal("a stopped provider still attached, or still worth waiting for")
	}
	b.fake.Sleep(time.Second)
	if len(gw2.Clients()) != 0 {
		t.Fatalf("gateway kept clients %v after the provider's tunClose", gw2.Clients())
	}
	gw2.Stop()
	b.drained()
}

// TestLifecycleStopMidCycle stops a provider while an OPEN is in flight, and
// another while its SLP lookup is: the answer, the time-out and the lookup's
// deadline all find the provider gone and leave nothing behind.
func TestLifecycleStopMidCycle(t *testing.T) {
	b := newLifecycleBed(t)
	// A gateway advert nobody stands behind: the OPEN goes unanswered.
	if err := b.agents[lcGW1].Register(slp.Service{
		Type: GatewayServiceType, Key: string(lcGW1),
		URL: slp.ServiceURL(GatewayServiceType, string(lcGW1)+":9000"),
	}); err != nil {
		t.Fatal(err)
	}
	cp := b.provider(b.config())
	b.fake.Sleep(b.config().ProbeInterval + b.config().AckTimeout/2)
	if cp.expecting() != tunOpenAck {
		t.Fatal("provider never sent an OPEN")
	}
	cp.Stop()
	cp.onAnswer(&tunnelMsg{Kind: tunOpenAck, OK: true}, tunnelPeer{lcGW1, 9000})
	b.fake.Sleep(2 * b.config().AckTimeout)
	if st := cp.Stats(); cp.Attached() || st.Attaches != 0 || st.AttachFails != 0 || len(cp.Blacklisted()) != 0 {
		t.Fatalf("a stopped provider went on with its OPEN: attached = %v, stats %+v, blacklist %v", cp.Attached(), st, cp.Blacklisted())
	}

	// No gateway anywhere: the next provider's first round asks the network.
	b.agents[lcGW1].Deregister(GatewayServiceType, string(lcGW1))
	b.agents[lcClient].InvalidateOrigin(lcGW1)
	lookups := b.agents[lcClient].Stats().Lookups
	cp = b.provider(b.config())
	b.fake.Sleep(b.config().ProbeInterval)
	if b.agents[lcClient].Stats().Lookups == lookups {
		t.Fatal("provider never asked the network for a gateway")
	}
	cp.Stop()
	b.fake.Sleep(2 * b.config().LookupTimeout)
	if got := b.agents[lcClient].Stats().Lookups; got != lookups+1 {
		t.Fatalf("%d lookups after Stop, want the one that was in flight", got-lookups)
	}
	b.drained()
}

// TestLifecycleWaitAttachedBudget pins the fail-fast contract: with no
// gateway to find, WaitAttached returns ErrNoGateway when the retry budget is
// spent — on the state change, long before its own timeout — and the provider
// keeps probing, so a gateway that appears later still attaches it.
func TestLifecycleWaitAttachedBudget(t *testing.T) {
	b := newLifecycleBed(t)
	cfg := b.config()
	cfg.MaxLookupRetries = 3
	cp := b.provider(cfg)
	start := b.fake.Now()
	err := cp.WaitAttached(time.Hour)
	// Three rounds of ProbeInterval + LookupTimeout each.
	if spent := b.fake.Now().Sub(start); !errors.Is(err, ErrNoGateway) || spent > 2*time.Second {
		t.Fatalf("WaitAttached = %v after %v, want ErrNoGateway as soon as three rounds failed", err, spent)
	}
	if !errors.Is(cp.LastError(), ErrNoGateway) {
		t.Fatalf("LastError = %v", cp.LastError())
	}
	gw := b.gateway(lcGW2)
	b.fake.Sleep(5 * time.Second)
	if !cp.Attached() || cp.LastError() != nil {
		t.Fatalf("late gateway: attached = %v, LastError = %v", cp.Attached(), cp.LastError())
	}
	cp.Stop()
	gw.Stop()
	b.drained()
}

// gatewayList is the ServiceDirectory of a node that has heard of a fixed set
// of gateways and learns nothing more.
type gatewayList struct {
	stubDirectory
	gateways    []slp.Service
	invalidated atomic.Int32
}

func (g *gatewayList) AppendServices(dst []slp.Service, _ string) []slp.Service {
	return append(dst, g.gateways...)
}

func (g *gatewayList) InvalidateOrigin(netem.NodeID) int {
	g.invalidated.Add(1)
	return 0
}

// TestLateAckFromTimedOutGatewayIgnored is the regression test for ACK
// matching. Two gateways are advertised. The first answers its OPEN only after
// AckTimeout, by when it has been given up on, blacklisted, and the OPEN to the
// second — which never answers — is in flight. That late ACK used to count for
// whichever OPEN was waiting, attaching the provider to a gateway that never
// answered; it must be ignored, and so must a PONG from a node that was not
// pinged.
func TestLateAckFromTimedOutGatewayIgnored(t *testing.T) {
	b := newLifecycleBed(t)
	cfg := b.config()
	now := b.fake.Now()
	advert := func(gw netem.NodeID, ttl time.Duration) slp.Service {
		return slp.Service{
			Type: GatewayServiceType, Key: string(gw), Origin: gw, Expires: now.Add(ttl),
			URL: slp.ServiceURL(GatewayServiceType, string(gw)+":9000"),
		}
	}
	// Freshest first: the slow gateway is tried before the silent one.
	dir := &gatewayList{gateways: []slp.Service{advert(lcGW2, time.Minute), advert(lcGW1, time.Hour)}}
	slow, err := b.hosts[lcGW1].Listen(9000)
	if err != nil {
		t.Fatal(err)
	}
	slow.Handle(func(dg *netem.Datagram) {
		peer, port := dg.SrcNode, dg.SrcPort
		b.hosts[lcGW1].Sched().After(string(lcGW1), cfg.AckTimeout+cfg.AckTimeout/2, func(time.Time) {
			_ = slow.WriteTo((&tunnelMsg{Kind: tunOpenAck, OK: true}).appendTo(nil), peer, port)
		})
	})
	silent, err := b.hosts[lcGW2].Listen(9000)
	if err != nil {
		t.Fatal(err)
	}
	var opens atomic.Int32
	silent.Handle(func(*netem.Datagram) { opens.Add(1) })

	cp := NewConnectionProvider(b.hosts[lcClient], dir, cfg)
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	// One round: OPEN to the slow gateway times out, OPEN to the silent one
	// times out with the slow one's ACK arriving half-way through.
	b.fake.Sleep(cfg.ProbeInterval + 3*cfg.AckTimeout)
	if cp.Attached() {
		t.Fatalf("attached to %s on the strength of another gateway's late ACK", cp.Gateway())
	}
	if st := cp.Stats(); st.Attaches != 0 || st.AttachFails != 2 || opens.Load() != 1 {
		t.Fatalf("stats = %+v with %d OPENs at the silent gateway, want two failed OPENs and no attach", st, opens.Load())
	}
	if got := cp.Blacklisted(); !slices.Equal(got, []netem.NodeID{lcGW1, lcGW2}) {
		t.Fatalf("blacklist = %v, want both gateways", got)
	}
	// A stray PONG is no sign of life either: nobody is being pinged.
	cp.onAnswer(&tunnelMsg{Kind: tunPong}, tunnelPeer{lcGW1, 9000})
	if cp.Attached() {
		t.Fatal("a stray PONG attached the provider")
	}
	cp.Stop()
	slow.Close()
	silent.Close()
	b.drained()
}

// TestGatewayRestartReopensTunnel is the regression test for a gateway that
// PONGed a node it held no tunnel for. The gateway provider restarts between
// two pings and its tunClose is lost on the way out, so the new provider
// knows nothing of the client, which still believes itself attached. The old
// provider's PONG kept it believing that, while the gateway dropped all its
// Internet traffic. Now the PING is answered as a refused OPEN, and the client
// opens the same gateway again within one round — without quarantining it —
// and a datagram to an Internet host gets through.
func TestGatewayRestartReopensTunnel(t *testing.T) {
	b := newLifecycleBed(t)
	cfg := b.config()
	gw := b.gateway(lcGW1)
	cp := b.provider(cfg)
	if err := cp.WaitAttached(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Restart while no PING is in flight: between the attach and the first
	// probe.
	if cp.expecting() != 0 {
		t.Fatal("the provider is still waiting for an answer after attaching")
	}
	b.net.SetLink(lcClient, lcGW1, false)
	gw.Stop()
	b.net.ClearLink(lcClient, lcGW1)
	gw = b.gateway(lcGW1)

	b.fake.Sleep(cfg.ProbeInterval + 10*time.Millisecond)
	if len(gw.Clients()) != 1 || !cp.Attached() {
		t.Fatalf("one round after the restart: attached = %v to %q, gateway clients %v", cp.Attached(), cp.Gateway(), gw.Clients())
	}
	if st := cp.Stats(); cp.Gateway() != lcGW1 || st.Attaches != 2 || st.Detaches != 1 || st.AttachFails != 0 || len(cp.Blacklisted()) != 0 {
		t.Fatalf("re-opened %q with stats %+v and blacklist %v, want the same gateway, not quarantined", cp.Gateway(), st, cp.Blacklisted())
	}

	sink, err := b.probe.Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	var arrived atomic.Int32
	sink.Handle(func(dg *netem.Datagram) {
		if dg.SrcNode == lcClient && string(dg.Data) == "hello, Internet" {
			arrived.Add(1)
		}
	})
	local, err := b.hosts[lcClient].Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := local.WriteTo([]byte("hello, Internet"), b.probe.ID(), 7); err != nil {
		t.Fatal(err)
	}
	b.fake.Sleep(time.Second)
	if arrived.Load() != 1 {
		t.Fatal("a datagram to an Internet host never arrived through the re-opened tunnel")
	}
	local.Close()
	sink.Close()
	cp.Stop()
	gw.Stop()
	b.drained()
}

// TestStoppingGatewayRefusesPingThenCloses covers a PING that reaches a
// gateway while it stops: after it has let go of its clients and before it has
// sent them tunClose. The PING is refused, so the client detaches and sends an
// OPEN the stopping gateway drops. The tunClose that follows must still count:
// the wait for the OPEN's answer ends at once, the gateway is quarantined and
// its adverts purged, without an attach failure or a second detach — not one
// AckTimeout later, as an OPEN that went unanswered.
func TestStoppingGatewayRefusesPingThenCloses(t *testing.T) {
	b := newLifecycleBed(t)
	cfg := b.config()
	dir := &gatewayList{gateways: []slp.Service{{
		Type: GatewayServiceType, Key: string(lcGW1), Origin: lcGW1, Expires: b.fake.Now().Add(time.Hour),
		URL: slp.ServiceURL(GatewayServiceType, string(lcGW1)+":9000"),
	}}}
	gw, err := b.hosts[lcGW1].Listen(9000)
	if err != nil {
		t.Fatal(err)
	}
	var stopping atomic.Bool
	var dropped atomic.Int32
	gw.Handle(func(dg *netem.Datagram) {
		msg, err := parseTunnelMsg(dg.Data)
		if err != nil {
			return
		}
		peer, port := dg.SrcNode, dg.SrcPort
		reply := func(m tunnelMsg) { _ = gw.WriteTo(m.appendTo(nil), peer, port) }
		switch {
		case msg.Kind == tunOpen && stopping.Load():
			dropped.Add(1)
		case msg.Kind == tunOpen:
			reply(tunnelMsg{Kind: tunOpenAck, OK: true})
		case msg.Kind == tunPing && stopping.Load():
			// The tunClose goes out a moment later, once the rest of Stop
			// has run.
			reply(tunnelMsg{Kind: tunOpenAck, OK: false})
			b.hosts[lcGW1].Sched().After(string(lcGW1), time.Millisecond, func(time.Time) { reply(tunnelMsg{Kind: tunClose}) })
		case msg.Kind == tunPing:
			reply(tunnelMsg{Kind: tunPong})
		}
	})
	cp := NewConnectionProvider(b.hosts[lcClient], dir, cfg)
	var downs atomic.Int32
	cp.OnChange(func(up bool) {
		if !up {
			downs.Add(1)
		}
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	if err := cp.WaitAttached(time.Second); err != nil {
		t.Fatal(err)
	}
	// Begin stopping between the attach and the first PING.
	if cp.expecting() != 0 {
		t.Fatal("the provider is still waiting for an answer after attaching")
	}
	stopping.Store(true)

	b.fake.Sleep(cfg.ProbeInterval + cfg.AckTimeout/2)
	if dir.invalidated.Load() != 1 {
		t.Fatalf("the tunClose after a refused PING went unheeded: stats %+v, waiting for kind %d", cp.Stats(), cp.expecting())
	}
	if cp.Attached() || cp.expecting() != 0 {
		t.Fatalf("attached = %v, waiting for kind %d; want detached, between rounds", cp.Attached(), cp.expecting())
	}
	if st := cp.Stats(); st.AttachFails != 0 || st.Detaches != 1 || downs.Load() != 1 {
		t.Fatalf("stats %+v with %d detach notifications, want no attach failure and one detach", st, downs.Load())
	}
	if got := cp.Blacklisted(); !slices.Equal(got, []netem.NodeID{lcGW1}) {
		t.Fatalf("blacklist = %v, want the stopped gateway", got)
	}
	// The next round leaves the quarantined gateway alone: the one OPEN it
	// saw is the one sent when its PING was refused.
	b.fake.Sleep(cfg.ProbeInterval + 10*time.Millisecond)
	if dropped.Load() != 1 {
		t.Fatalf("%d OPENs sent to the stopped gateway, want 1", dropped.Load())
	}
	cp.Stop()
	gw.Close()
	b.drained()
}

// TestProviderProbesAtStart: the first probe runs in Start, not one
// ProbeInterval after it, so a provider with a gateway one hop away is
// attached after a lookup and an OPEN round trip — well inside the first
// ProbeInterval, which it used to wait out before asking at all.
func TestProviderProbesAtStart(t *testing.T) {
	b := newLifecycleBed(t)
	gw := b.gateway(lcGW1)
	cfg := b.config()
	start := b.fake.Now()
	cp := b.provider(cfg)
	if err := cp.WaitAttached(5 * time.Second); err != nil || cp.Gateway() != lcGW1 {
		t.Fatalf("WaitAttached = %v, attached to %q, want %s", err, cp.Gateway(), lcGW1)
	}
	took := b.fake.Now().Sub(start)
	t.Logf("attached %v after Start", took)
	if took >= cfg.ProbeInterval {
		t.Errorf("attached %v after Start, want less than ProbeInterval (%v)", took, cfg.ProbeInterval)
	}
	cp.Stop()
	gw.Stop()
	b.drained()
}
