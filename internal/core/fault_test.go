package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"siphoc/internal/internet"
	"siphoc/internal/netem"
	"siphoc/internal/routing/aodv"
	"siphoc/internal/sip"
	"siphoc/internal/slp"
)

// faultBed is a MANET with one client node and a configurable number of
// gateway hosts, all mutually in radio range, for failure-path tests.
type faultBed struct {
	net    *netem.Network
	inet   *internet.Internet
	node   *netem.Host
	gws    []*netem.Host
	agents map[netem.NodeID]*slp.Agent
}

func newFaultBed(t *testing.T, gateways int) *faultBed {
	t.Helper()
	fb := &faultBed{
		net:    netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond}),
		inet:   internet.New(internet.Config{Delay: 200 * time.Microsecond}),
		agents: make(map[netem.NodeID]*slp.Agent),
	}
	t.Cleanup(fb.net.Close)
	t.Cleanup(fb.inet.Close)
	addHost := func(id netem.NodeID, x float64) *netem.Host {
		h, err := fb.net.AddHost(id, netem.Position{X: x})
		if err != nil {
			t.Fatal(err)
		}
		proto := aodv.New(h, aodv.SimConfig())
		agent := slp.NewAgent(h, slp.Config{})
		agent.AttachRouting(proto)
		if err := proto.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(proto.Stop)
		if err := agent.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(agent.Stop)
		fb.agents[id] = agent
		return h
	}
	fb.node = addHost("10.0.0.1", 0)
	for i := 0; i < gateways; i++ {
		fb.gws = append(fb.gws, addHost(netem.NodeID(fmt.Sprintf("10.0.0.%d", i+2)), float64(30*(i+1))))
	}
	return fb
}

func (fb *faultBed) startGateway(t *testing.T, h *netem.Host) *GatewayProvider {
	t.Helper()
	gw := NewGatewayProvider(h, fb.inet, fb.agents[h.ID()], GatewayConfig{ClientTTL: time.Second})
	if err := gw.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Stop)
	return gw
}

// faultConnCfg is fastConnCfg with a tight acquisition budget so terminal
// failures surface within a test-sized timeout.
func faultConnCfg() ConnProviderConfig {
	cfg := fastConnCfg()
	cfg.MaxLookupRetries = 3
	cfg.BlacklistTTL = 2 * time.Second
	return cfg
}

func waitCond(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestGatewayFailureMatrix drives the Connection Provider through the
// gateway-death matrix: abrupt crash and graceful shutdown with a fallback
// gateway available (must fail over), the double crash of every gateway and a
// crash racing the initial attach (must surface the typed terminal error
// while probing continues).
func TestGatewayFailureMatrix(t *testing.T) {
	cases := []struct {
		name      string
		gateways  int
		graceful  bool // Stop() announces tunClose; otherwise the host vanishes
		crashBoth bool // also kill the fallback gateway
		preCrash  bool // kill before the provider ever attaches
	}{
		{name: "abrupt crash fails over", gateways: 2},
		{name: "graceful shutdown fails over", gateways: 2, graceful: true},
		{name: "double crash is terminal", gateways: 2, crashBoth: true},
		{name: "crash during attach is terminal", gateways: 1, preCrash: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			fb := newFaultBed(t, tc.gateways)
			gws := make([]*GatewayProvider, len(fb.gws))
			for i, h := range fb.gws {
				gws[i] = fb.startGateway(t, h)
			}

			cp := NewConnectionProvider(fb.node, fb.agents[fb.node.ID()], faultConnCfg())

			if tc.preCrash {
				// Let the gateway advert spread, then crash the gateway
				// before the provider starts: the OPEN can only time out.
				if _, err := fb.agents[fb.node.ID()].Lookup(GatewayServiceType, "", time.Second); err != nil {
					t.Fatal(err)
				}
				fb.net.RemoveHost(fb.gws[0].ID())
				if err := cp.Start(); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(cp.Stop)
				err := cp.WaitAttached(10 * time.Second)
				if !errors.Is(err, ErrNoGateway) {
					t.Fatalf("WaitAttached = %v, want ErrNoGateway", err)
				}
				if !errors.Is(cp.LastError(), ErrNoGateway) {
					t.Fatalf("LastError = %v, want ErrNoGateway", cp.LastError())
				}
				return
			}

			if err := cp.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cp.Stop)
			if err := cp.WaitAttached(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			first := cp.Gateway()

			// Kill the attached gateway (and with crashBoth the fallback).
			kill := func(gw netem.NodeID) {
				for i, h := range fb.gws {
					if h.ID() != gw {
						continue
					}
					if tc.graceful {
						gws[i].Stop()
					} else {
						fb.net.RemoveHost(gw)
					}
				}
			}
			kill(first)
			if tc.crashBoth {
				for _, h := range fb.gws {
					if h.ID() != first {
						kill(h.ID())
					}
				}
				// The provider only notices on the next failed ping; wait
				// for the detach before asserting the terminal error.
				waitCond(t, 15*time.Second, "detach", func() bool {
					return !cp.Attached()
				})
				err := cp.WaitAttached(15 * time.Second)
				if !errors.Is(err, ErrNoGateway) {
					t.Fatalf("WaitAttached = %v, want ErrNoGateway", err)
				}
				return
			}

			// Failover: re-attached to the surviving gateway, with the dead
			// one quarantined and the failover latency recorded.
			waitCond(t, 15*time.Second, "failover", func() bool {
				return cp.Attached() && cp.Gateway() != first
			})
			st := cp.Stats()
			if st.Failovers < 1 {
				t.Fatalf("Failovers = %d, want >= 1 (stats %+v)", st.Failovers, st)
			}
			if st.LastFailoverDur <= 0 {
				t.Fatalf("LastFailoverDur = %v, want > 0", st.LastFailoverDur)
			}
			found := false
			for _, gw := range cp.Blacklisted() {
				if gw == first {
					found = true
				}
			}
			if !found {
				t.Fatalf("dead gateway %v not blacklisted (%v)", first, cp.Blacklisted())
			}
		})
	}
}

// candidates lists the gateways an attach round would try, in order.
func (p *ConnectionProvider) candidates() []tunnelPeer {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gatewayCandidates()
	return slices.Clone(p.cands)
}

// TestBlacklistedGatewaySkipped pins the candidate filter directly: a
// quarantined gateway is not offered for attachment until its TTL lapses.
func TestBlacklistedGatewaySkipped(t *testing.T) {
	fb := newFaultBed(t, 2)
	fb.startGateway(t, fb.gws[0])
	fb.startGateway(t, fb.gws[1])
	cfg := faultConnCfg()
	cp := NewConnectionProvider(fb.node, fb.agents[fb.node.ID()], cfg)
	// Warm the SLP cache so candidates exist without starting the loops.
	if _, err := fb.agents[fb.node.ID()].Lookup(GatewayServiceType, "", time.Second); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 5*time.Second, "both adverts cached", func() bool {
		return len(cp.candidates()) == 2
	})
	cp.blacklistGateway(fb.gws[0].ID())
	cands := cp.candidates()
	if len(cands) != 1 || cands[0].node != fb.gws[1].ID() {
		t.Fatalf("candidates with blacklist = %+v", cands)
	}
	if bl := cp.Blacklisted(); len(bl) != 1 || bl[0] != fb.gws[0].ID() {
		t.Fatalf("Blacklisted() = %v", bl)
	}
}

// TestProxyReresolvesStaleSLP covers proxy recovery from a stale SLP result:
// the callee's proxy moved (old node crashed, new node re-advertised the
// AOR), the INVITE to the dead address exhausts its retransmissions, and the
// proxy evicts the stale entry, re-resolves and completes the call.
func TestProxyReresolvesStaleSLP(t *testing.T) {
	fb := newFaultBed(t, 2) // gateways unused; we just want 3 routed hosts
	old, fresh := fb.gws[0], fb.gws[1]

	// The callee's original advert, originated by the soon-to-die node.
	if err := fb.agents[old.ID()].Register(slp.Service{
		Type: SIPServiceType, Key: "bob@voicehoc.ch",
		URL: slp.ServiceURL(SIPServiceType, string(old.ID())+":5060"),
	}); err != nil {
		t.Fatal(err)
	}
	caller := NewProxy(fb.node, fb.agents[fb.node.ID()], nil, ProxyConfig{
		SLPTimeout:     300 * time.Millisecond,
		ResolveRetries: 2,
		ResolveBackoff: 20 * time.Millisecond,
	})
	if err := caller.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(caller.Stop)
	// Cache the stale advert on the caller's node, then crash its origin.
	if _, err := fb.agents[fb.node.ID()].Lookup(SIPServiceType, "bob@voicehoc.ch", time.Second); err != nil {
		t.Fatal(err)
	}
	fb.net.RemoveHost(old.ID())

	// Bob reappears on the surviving node: a UA answering 200 OK.
	uaConn, err := fresh.Listen(5080)
	if err != nil {
		t.Fatal(err)
	}
	ua := sip.NewStack(uaConn, sip.SimConfig())
	t.Cleanup(ua.Close)
	ua.OnRequest(func(tx *sip.ServerTx) {
		resp := sip.NewResponse(tx.Request(), sip.StatusOK, "")
		resp.To = resp.To.WithTag("bob-1")
		_ = tx.Respond(resp)
	})

	callerConn, err := fb.node.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	stack := sip.NewStack(callerConn, sip.SimConfig())
	t.Cleanup(stack.Close)
	req := sip.NewRequest(sip.MethodInvite, sip.MustParseURI("sip:bob@voicehoc.ch"))
	req.From = &sip.NameAddr{URI: sip.MustParseURI("sip:alice@voicehoc.ch")}
	req.From = req.From.WithTag("a1")
	req.To = &sip.NameAddr{URI: sip.MustParseURI("sip:bob@voicehoc.ch")}
	req.CallID = "c-stale"
	req.CSeq = sip.CSeq{Seq: 1, Method: sip.MethodInvite}
	final := make(chan *sip.Message, 1)
	if err := stack.SendRequest(req, caller.Addr(), func(m *sip.Message) {
		if m.StatusCode >= 200 {
			select {
			case final <- m:
			default:
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Bob is advertised on the surviving node only once the INVITE has gone
	// to the dead one: an advert that reached the caller's cache first would
	// leave nothing stale to recover from.
	waitCond(t, 5*time.Second, "first forward", func() bool { return caller.Stats().RequestsRouted >= 1 })
	if err := fb.agents[fresh.ID()].Register(slp.Service{
		Type: SIPServiceType, Key: "bob@voicehoc.ch",
		URL: slp.ServiceURL(SIPServiceType, string(fresh.ID())+":5080"),
	}); err != nil {
		t.Fatal(err)
	}
	var resp *sip.Message
	select {
	case resp = <-final:
	case <-time.After(15 * time.Second):
		t.Fatal("INVITE never answered")
	}
	if resp.StatusCode != sip.StatusOK {
		t.Fatalf("INVITE after callee moved = %d, want 200 (stats %+v, cached %+v)",
			resp.StatusCode, caller.Stats(), fb.agents[fb.node.ID()].AppendServices(nil, SIPServiceType))
	}
	st := caller.Stats()
	if st.SLPEvictions < 1 || st.SLPReresolutions < 1 {
		t.Fatalf("recovery not exercised: %+v", st)
	}
}

// TestProxyRetransmitExhaustionIs408 pins the terminal path: when the stale
// route has no replacement, the proxy still answers the caller with 408
// after its bounded recovery attempts rather than hanging.
func TestProxyRetransmitExhaustionIs408(t *testing.T) {
	_, host, agent := shortTTLFixture(t)
	proxy := NewProxy(host, agent, nil, ProxyConfig{
		SLPTimeout:     200 * time.Millisecond,
		ResolveRetries: -1, // recovery covered elsewhere; pin the terminal path
	})
	if err := proxy.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Stop)
	// An advert pointing into the void: nothing listens at the target.
	if err := agent.Register(slp.Service{Type: SIPServiceType, Key: "ghost@voicehoc.ch",
		URL: slp.ServiceURL(SIPServiceType, "10.0.0.9:5060")}); err != nil {
		t.Fatal(err)
	}
	conn, err := host.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	stack := sip.NewStack(conn, sip.SimConfig())
	t.Cleanup(stack.Close)
	req := sip.NewRequest(sip.MethodInvite, sip.MustParseURI("sip:ghost@voicehoc.ch"))
	req.From = &sip.NameAddr{URI: sip.MustParseURI("sip:alice@voicehoc.ch")}
	req.From = req.From.WithTag("a2")
	req.To = &sip.NameAddr{URI: sip.MustParseURI("sip:ghost@voicehoc.ch")}
	req.CallID = "c-408"
	req.CSeq = sip.CSeq{Seq: 1, Method: sip.MethodInvite}
	resp, err := stack.Await(req, proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != sip.StatusRequestTimeout {
		t.Fatalf("status = %d, want 408", resp.StatusCode)
	}
}
