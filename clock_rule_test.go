// The clock rule: a component bound to a netem.Host takes its time from that
// host. No component's config names a clock, so on a network that runs on a
// clock.Fake every time a component stamps — an advert's Expires, a binding's
// expiry, a blacklist entry, a transaction's deadline — is fake time, and
// passes only while the test waits.
package siphoc_test

import (
	"errors"
	"slices"
	"testing"
	"time"

	"siphoc"
	"siphoc/internal/baseline/floodreg"
	"siphoc/internal/baseline/picosip"
	"siphoc/internal/clock"
	"siphoc/internal/core"
	"siphoc/internal/internet"
	"siphoc/internal/netem"
	"siphoc/internal/overlay"
	"siphoc/internal/routing/aodv"
	"siphoc/internal/routing/olsr"
	"siphoc/internal/sip"
	"siphoc/internal/slp"
	"siphoc/internal/voip"
)

// clockBed is what each case gets: a fake clock and, on it, a fresh MANET of
// three hosts in radio range of each other.
type clockBed struct {
	t       *testing.T
	fake    *clock.Fake
	net     *netem.Network
	a, b, c *netem.Host
}

func newClockBed(t *testing.T) *clockBed {
	t.Helper()
	bed := &clockBed{t: t, fake: clock.NewFake(time.Unix(9_000_000, 0))}
	bed.net = netem.NewNetwork(netem.Config{Clock: bed.fake})
	t.Cleanup(bed.net.Close)
	for i, h := range []**netem.Host{&bed.a, &bed.b, &bed.c} {
		var err error
		if *h, err = bed.net.AddHost(netem.NodeName("10.8.0", i+1), netem.Position{X: float64(30 * i)}); err != nil {
			t.Fatal(err)
		}
		(*h).SetRouteProvider(neighbours{})
	}
	return bed
}

// onFake reports whether ts is a time of the fake clock's epoch (1970), not
// the wall's.
func (bed *clockBed) onFake(ts time.Time) bool {
	d := ts.Sub(bed.fake.Now())
	return -24*time.Hour < d && d < 24*time.Hour
}

// returns runs a blocking call and reports whether it returned within limit
// of virtual time, and what. A call whose timers are not on the network's
// clock waits on them in vain, and the fake clock panics once nothing else is
// left to run.
func (bed *clockBed) returns(limit time.Duration, call func() error) (ended bool, err error) {
	start := bed.fake.Now()
	err = call()
	return bed.fake.Now().Sub(start) <= limit, err
}

// failsIn runs a blocking call that can only end by a timer, and checks that
// it ends, with an error, within limit of virtual time.
func (bed *clockBed) failsIn(limit time.Duration, what string, call func() error) {
	bed.t.Helper()
	if ended, err := bed.returns(limit, call); !ended || err == nil {
		bed.t.Fatalf("%s: ended = %v with %v after %v of virtual time; its timers are not on the network's clock", what, ended, err, limit)
	}
}

func TestComponentsTakeHostClock(t *testing.T) {
	t.Run("slp", func(t *testing.T) {
		bed := newClockBed(t)
		a := slp.NewAgent(bed.a, slp.Config{})
		if err := a.Register(slp.Service{Type: "sip", Key: "u@x", URL: slp.ServiceURL("sip", "10.8.0.1:5060")}); err != nil {
			t.Fatal(err)
		}
		if svcs := a.AppendServices(nil, "sip"); len(svcs) != 1 || !bed.onFake(svcs[0].Expires) {
			t.Fatalf("advert expires at %v, fake time is %v", svcs, bed.fake.Now())
		}
	})

	t.Run("aodv", func(t *testing.T) {
		bed := newClockBed(t)
		var protos []*aodv.Protocol
		for _, h := range []*netem.Host{bed.a, bed.b} {
			p := aodv.New(h, aodv.Config{})
			if err := p.Start(); err != nil {
				t.Fatal(err)
			}
			defer p.Stop()
			protos = append(protos, p)
		}
		protos[0].RequestRoute(bed.b.ID(), func(bool) {})
		bed.fake.Sleep(time.Second)
		routes := protos[0].Routes()
		if len(routes) == 0 {
			t.Fatal("no route discovered")
		}
		if !bed.onFake(routes[0].Expires) {
			t.Fatalf("route expires at %v, fake time is %v", routes[0].Expires, bed.fake.Now())
		}
	})

	t.Run("olsr", func(t *testing.T) {
		bed := newClockBed(t)
		var protos []*olsr.Protocol
		for _, h := range []*netem.Host{bed.a, bed.b} {
			p := olsr.New(h, olsr.Config{})
			if err := p.Start(); err != nil {
				t.Fatal(err)
			}
			defer p.Stop()
			protos = append(protos, p)
		}
		linked := func() bool { _, ok := protos[0].NextHop(bed.b.ID()); return ok }
		bed.fake.Sleep(time.Minute)
		if !linked() {
			t.Fatal("neighbours never linked")
		}
		// A link tuple is held for NeighborHold of the protocol's clock.
		bed.net.SetLink(bed.a.ID(), bed.b.ID(), false)
		bed.fake.Sleep(time.Minute)
		if linked() {
			t.Fatal("a cut link outlived a minute of virtual time: its hold time is not on the network's clock")
		}
	})

	t.Run("sip", func(t *testing.T) {
		bed := newClockBed(t)
		conn, err := bed.a.Listen(sip.DefaultPort)
		if err != nil {
			t.Fatal(err)
		}
		stack := sip.NewStack(conn, sip.Config{})
		defer stack.Close()
		req := sip.NewRequest(sip.MethodOptions, &sip.URI{Scheme: "sip", Host: string(bed.b.ID())})
		req.From = (&sip.NameAddr{URI: &sip.URI{Scheme: "sip", User: "u", Host: "x"}}).WithTag(stack.NewTag())
		req.To = &sip.NameAddr{URI: &sip.URI{Scheme: "sip", User: "v", Host: "x"}}
		req.CallID, req.CSeq = stack.NewCallID(), sip.CSeq{Seq: 1, Method: sip.MethodOptions}
		// Nobody listens at b: Timer F, 64×T1 = 32 s, ends the transaction.
		bed.failsIn(time.Minute, "OPTIONS to a silent node", func() error {
			if resp, err := stack.Await(req, sip.Addr{Node: bed.b.ID(), Port: sip.DefaultPort}); err != nil || resp.StatusCode != sip.StatusRequestTimeout {
				return err
			}
			return sip.ErrTimeout
		})
	})

	t.Run("phone", func(t *testing.T) {
		bed := newClockBed(t)
		silent := sip.Addr{Node: bed.b.ID(), Port: sip.DefaultPort}
		for name, sipCfg := range map[string]sip.Config{
			"default timings": {},
			"custom T1":       {T1: 10 * time.Millisecond, T2: 40 * time.Millisecond},
		} {
			ph := voip.New(bed.a, voip.Config{User: "u", Domain: "x", OutboundProxy: silent, SIP: sipCfg, Port: 5070})
			if err := ph.Start(); err != nil {
				t.Fatal(err)
			}
			bed.failsIn(time.Minute, "REGISTER with "+name+" at a silent proxy", ph.Register)
			ph.Stop()
		}
	})

	t.Run("proxy", func(t *testing.T) {
		bed := newClockBed(t)
		proxy := core.NewProxy(bed.a, slp.NewAgent(bed.a, slp.Config{}), nil, core.ProxyConfig{})
		if err := proxy.Start(); err != nil {
			t.Fatal(err)
		}
		defer proxy.Stop()
		ph := voip.New(bed.a, voip.Config{User: "u", Domain: "x", OutboundProxy: proxy.Addr()})
		if err := ph.Start(); err != nil {
			t.Fatal(err)
		}
		defer ph.Stop()
		if ok, err := bed.returns(time.Minute, ph.Register); !ok || err != nil || len(proxy.Bindings()) != 1 {
			t.Fatalf("phone never registered with its proxy: %v", err)
		}
		// The binding lives 60 s, of the proxy's clock.
		bed.fake.Sleep(2 * time.Minute)
		if len(proxy.Bindings()) != 0 {
			t.Fatal("binding outlived two minutes of virtual time")
		}
	})

	t.Run("providers", func(t *testing.T) {
		bed := newClockBed(t)
		inet := internet.New(internet.Config{Clock: bed.fake})
		defer inet.Close()
		agents := make(map[*netem.Host]*slp.Agent)
		for _, h := range []*netem.Host{bed.a, bed.b} {
			agents[h] = slp.NewAgent(h, slp.Config{Mode: slp.ModeMulticast})
			if err := agents[h].Start(); err != nil {
				t.Fatal(err)
			}
			defer agents[h].Stop()
		}
		// Connection Provider: a gateway advert nobody stands behind gets c
		// blacklisted, for BlacklistTTL of the provider's clock.
		bogus := slp.Service{Type: core.GatewayServiceType, Key: "bogus",
			URL: slp.ServiceURL(core.GatewayServiceType, string(bed.c.ID())+":9000")}
		if err := agents[bed.a].Register(bogus); err != nil {
			t.Fatal(err)
		}
		cp := core.NewConnectionProvider(bed.a, agents[bed.a], core.ConnProviderConfig{})
		if err := cp.Start(); err != nil {
			t.Fatal(err)
		}
		defer cp.Stop()
		bed.fake.Sleep(2 * time.Second)
		if !slices.Equal(cp.Blacklisted(), []netem.NodeID{bed.c.ID()}) {
			t.Fatalf("blacklist = %v, want the silent gateway", cp.Blacklisted())
		}
		agents[bed.a].Deregister(bogus.Type, bogus.Key)
		bed.fake.Sleep(time.Minute)
		if len(cp.Blacklisted()) != 0 {
			t.Fatal("blacklist entry outlived a minute of virtual time")
		}
		// Gateway Provider: a client that vanishes is evicted after ClientTTL
		// of the gateway's clock.
		gw := core.NewGatewayProvider(bed.b, inet, agents[bed.b], core.GatewayConfig{})
		if err := gw.Start(); err != nil {
			t.Fatal(err)
		}
		defer gw.Stop()
		bed.fake.Sleep(time.Minute)
		if !cp.Attached() || len(gw.Clients()) != 1 {
			t.Fatalf("attached = %v, gateway clients = %v", cp.Attached(), gw.Clients())
		}
		bed.net.RemoveHost(bed.a.ID())
		bed.fake.Sleep(time.Minute)
		if len(gw.Clients()) != 0 {
			t.Fatal("a vanished tunnel client outlived a minute of virtual time")
		}
	})

	t.Run("internet", func(t *testing.T) {
		bed := newClockBed(t)
		inet := internet.New(internet.Config{Clock: bed.fake})
		defer inet.Close()
		prov, err := internet.NewProvider(inet, internet.ProviderConfig{Domain: "one.example"})
		if err != nil {
			t.Fatal(err)
		}
		defer prov.Close()
		pool, err := internet.NewProviderPool(inet, internet.PoolConfig{Domain: "pool.example", Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		prov.AddAccount("u")
		pool.AddAccount("u")
		for domain, tier := range map[string]interface {
			ProxyAddr() sip.Addr
			Binding(string) (sip.Addr, bool)
		}{"one.example": prov, "pool.example": pool} {
			host, err := inet.AddHost(netem.NodeID("phone." + domain))
			if err != nil {
				t.Fatal(err)
			}
			ph := voip.New(host, voip.Config{User: "u", Domain: domain, OutboundProxy: tier.ProxyAddr()})
			if err := ph.Start(); err != nil {
				t.Fatal(err)
			}
			defer ph.Stop()
			bound := func() bool { _, ok := tier.Binding("u@" + domain); return ok }
			if ok, err := bed.returns(time.Minute, ph.Register); !ok || err != nil || !bound() {
				t.Fatalf("phone never registered at %s: %v", domain, err)
			}
			bed.fake.Sleep(2 * time.Minute)
			if bound() {
				t.Fatalf("binding at %s outlived two minutes of virtual time", domain)
			}
		}
	})

	t.Run("overlay", func(t *testing.T) {
		bed := newClockBed(t)
		// The bootstrap peer never answers and an RPC is given two hours to,
		// so only the lookup's own deadline can end it.
		n, err := overlay.New(overlay.Config{Host: bed.a, Bootstrap: []netem.NodeID{bed.b.ID()}, RPCTimeout: 2 * time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		bed.failsIn(time.Hour, "lookup through a silent overlay", func() error {
			_, err := n.Lookup("u@x", 30*time.Minute)
			if !errors.Is(err, overlay.ErrTimeout) {
				t.Errorf("lookup = %v, want ErrTimeout", err)
			}
			return err
		})
	})

	t.Run("baselines", func(t *testing.T) {
		bed := newClockBed(t)
		fa, fb := floodreg.New(bed.a, floodreg.Config{}), floodreg.New(bed.b, floodreg.Config{})
		pa, pb := picosip.New(bed.a, picosip.Config{}), picosip.New(bed.b, picosip.Config{})
		// Both baselines speak KindService frames: one pair at a time.
		for name, pair := range map[string]struct {
			start, stop []func()
			register    func(aor, addr string)
			lookup      func(aor string) (string, bool)
		}{
			"floodreg": {[]func(){func() { _ = fa.Start() }, func() { _ = fb.Start() }}, []func(){fa.Stop, fb.Stop}, fa.Register, fb.Lookup},
			"picosip":  {[]func(){func() { _ = pa.Start() }, func() { _ = pb.Start() }}, []func(){pa.Stop, pb.Stop}, pa.Register, pb.Lookup},
		} {
			for _, start := range pair.start {
				start()
			}
			pair.register("u@x", "10.8.0.1:5060")
			known := func() bool { _, ok := pair.lookup("u@x"); return ok }
			bed.fake.Sleep(time.Minute)
			if !known() {
				t.Fatalf("%s: binding never reached the neighbour", name)
			}
			bed.net.SetLink(bed.a.ID(), bed.b.ID(), false)
			bed.fake.Sleep(time.Minute)
			if known() {
				t.Fatalf("%s: binding outlived a minute of virtual time without refreshes", name)
			}
			bed.net.SetLink(bed.a.ID(), bed.b.ID(), true)
			for _, stop := range pair.stop {
				stop()
			}
		}
	})

	// A scenario is told its clock once, as its radio's, and everything in it
	// — the Internet, the nodes, a phone with SIP timings of its own — is on it.
	t.Run("scenario", func(t *testing.T) {
		fake := clock.NewFake(time.Unix(9_000_000, 0))
		sc, err := siphoc.NewScenarioWith(
			siphoc.WithRadio(netem.Config{Clock: fake}),
			siphoc.WithInternet(0),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		node, err := sc.AddNode("10.0.0.1", siphoc.Position{})
		if err != nil {
			t.Fatal(err)
		}
		if sc.Clock() != clock.Clock(fake) || sc.Internet().Network().Clock() != clock.Clock(fake) || node.Host().Clock() != clock.Clock(fake) {
			t.Fatal("scenario, Internet and node do not share the radio's clock")
		}
		ph, err := node.NewPhoneWith(siphoc.PhoneConfig{
			User: "u", Domain: "x",
			OutboundProxy: sip.Addr{Node: "10.0.0.99", Port: sip.DefaultPort},
			SIP:           sip.Config{T1: 10 * time.Millisecond, T2: 40 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		bed := &clockBed{t: t, fake: fake}
		bed.failsIn(time.Minute, "REGISTER with custom SIP timings at a silent proxy", ph.Register)

		// A federation island takes the federation's clock; a radio naming
		// another is refused.
		fed, err := siphoc.NewFederationScenario(siphoc.FederationConfig{Islands: 1, GatewaysPerIsland: 1, ClientsPerIsland: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer fed.Close()
		if _, err := siphoc.NewScenarioWith(siphoc.WithFederation(fed, "10.9.0"), siphoc.WithRadio(netem.Config{Clock: fake})); err == nil {
			t.Fatal("a scenario with two clocks was built")
		}
	})
}
