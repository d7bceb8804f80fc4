package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"siphoc/internal/internet"
	"siphoc/internal/netem"
	"siphoc/internal/routing/aodv"
	"siphoc/internal/sip"
	"siphoc/internal/slp"
)

func TestTunnelMsgCodec(t *testing.T) {
	cases := []*tunnelMsg{
		{Kind: tunOpen},
		{Kind: tunOpenAck, OK: true},
		{Kind: tunOpenAck, OK: false},
		{Kind: tunData, Inner: []byte("inner-datagram")},
		{Kind: tunClose},
		{Kind: tunPing},
		{Kind: tunPong},
	}
	for _, in := range cases {
		out, err := parseTunnelMsg(in.appendTo(nil))
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		if out.Kind != in.Kind || out.OK != in.OK || string(out.Inner) != string(in.Inner) {
			t.Fatalf("round trip: %+v vs %+v", in, out)
		}
	}
	if _, err := parseTunnelMsg([]byte{99}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := parseTunnelMsg(nil); err == nil {
		t.Fatal("empty message accepted")
	}
}

func TestEncapsulateRoundTrip(t *testing.T) {
	owner := netem.NewNetwork(netem.Config{})
	defer owner.Close()
	f := func(src, dst string, sp, dp uint16, data []byte) bool {
		if len(src) > 200 || len(dst) > 200 {
			return true
		}
		dg := &netem.Datagram{
			SrcNode: netem.NodeID(src), DstNode: netem.NodeID(dst),
			SrcPort: sp, DstPort: dp, TTL: 3, Data: data,
		}
		raw, err := encapsulate([]byte("scratch"), dg)
		if err != nil || string(raw[:len("scratch")]) != "scratch" {
			return false
		}
		msg, err := parseTunnelMsg(raw[len("scratch"):])
		if err != nil || msg.Kind != tunData {
			return false
		}
		want, _ := netem.AppendDatagram(nil, dg)
		var out netem.Datagram
		if string(msg.Inner) != string(want) || decapsulate(&out, msg.Inner, owner) != nil {
			return false
		}
		return out.SrcNode == dg.SrcNode && out.DstNode == dg.DstNode &&
			out.SrcPort == sp && out.DstPort == dp && string(out.Data) == string(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// testbed builds a 2-node MANET (node + gateway) plus an Internet.
type testbed struct {
	net    *netem.Network
	inet   *internet.Internet
	node   *netem.Host
	gwHost *netem.Host
	agents map[netem.NodeID]*slp.Agent
	protos []*aodv.Protocol
}

func newTestbed(t *testing.T) *testbed {
	t.Helper()
	tb := &testbed{
		net:    netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond}),
		inet:   internet.New(internet.Config{Delay: 200 * time.Microsecond}),
		agents: make(map[netem.NodeID]*slp.Agent),
	}
	t.Cleanup(tb.net.Close)
	t.Cleanup(tb.inet.Close)
	var err error
	tb.node, err = tb.net.AddHost("10.0.0.1", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	tb.gwHost, err = tb.net.AddHost("10.0.0.2", netem.Position{X: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*netem.Host{tb.node, tb.gwHost} {
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
		tb.agents[h.ID()] = agent
		tb.protos = append(tb.protos, proto)
	}
	return tb
}

func fastConnCfg() ConnProviderConfig {
	return ConnProviderConfig{
		ProbeInterval: 50 * time.Millisecond,
		LookupTimeout: 100 * time.Millisecond,
		AckTimeout:    300 * time.Millisecond,
	}
}

func TestGatewayTunnelLifecycle(t *testing.T) {
	tb := newTestbed(t)
	gw := NewGatewayProvider(tb.gwHost, tb.inet, tb.agents[tb.gwHost.ID()], GatewayConfig{ClientTTL: time.Second})
	if err := gw.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Stop)
	cp := NewConnectionProvider(tb.node, tb.agents[tb.node.ID()], fastConnCfg())
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Stop)

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && !cp.Attached() {
		time.Sleep(10 * time.Millisecond)
	}
	if !cp.Attached() {
		t.Fatal("connection provider never attached")
	}
	if cp.Gateway() != tb.gwHost.ID() {
		t.Fatalf("gateway = %v", cp.Gateway())
	}
	if got := gw.Clients(); len(got) != 1 || got[0] != tb.node.ID() {
		t.Fatalf("gateway clients = %v", got)
	}
	if gw.Stats().TunnelsOpened != 1 {
		t.Fatalf("stats = %+v", gw.Stats())
	}

	// Traffic to an Internet host flows through the tunnel.
	echoHost, err := tb.inet.AddHost("echo.example")
	if err != nil {
		t.Fatal(err)
	}
	echoConn, err := echoHost.Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	defer echoConn.Close()
	echoConn.Handle(func(dg *netem.Datagram) {
		_ = echoConn.WriteTo(dg.Data, dg.SrcNode, dg.SrcPort)
	})
	local, err := tb.node.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	// A burst of datagrams of every length class, each one echoed: both tunnel
	// ends decapsulate in place, inside a datagram whose buffer is poisoned
	// and reused as soon as their handler returns, and the echo writes back
	// the bytes it was lent.
	const burst = 40
	done := make(chan string, burst)
	local.Handle(func(dg *netem.Datagram) { done <- string(dg.Data) })
	want := make(map[string]bool, burst)
	for i := range burst {
		msg := fmt.Sprintf("ping-internet-%d-%s", i, strings.Repeat("x", i*37%900))
		want[msg] = true
		if err := local.WriteTo([]byte(msg), "echo.example", 7); err != nil {
			t.Fatal(err)
		}
	}
	for len(want) > 0 {
		select {
		case got := <-done:
			if !want[got] {
				t.Fatalf("echo = %q, not among the %d still owed", got, len(want))
			}
			delete(want, got)
		case <-time.After(10 * time.Second):
			t.Fatalf("%d echoes never returned through the tunnel", len(want))
		}
	}

	// Stop the connection provider: the gateway evicts the client after
	// the TTL.
	cp.Stop()
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && len(gw.Clients()) > 0 {
		time.Sleep(20 * time.Millisecond)
	}
	if n := len(gw.Clients()); n != 0 {
		t.Fatalf("gateway still has %d clients after close", n)
	}
}

func TestConnectionProviderDetachOnGatewayDeath(t *testing.T) {
	tb := newTestbed(t)
	gw := NewGatewayProvider(tb.gwHost, tb.inet, tb.agents[tb.gwHost.ID()], GatewayConfig{})
	if err := gw.Start(); err != nil {
		t.Fatal(err)
	}
	cp := NewConnectionProvider(tb.node, tb.agents[tb.node.ID()], fastConnCfg())
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Stop)
	var (
		flipMu sync.Mutex
		flips  []bool
	)
	cp.OnChange(func(a bool) {
		flipMu.Lock()
		flips = append(flips, a)
		flipMu.Unlock()
	})

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && !cp.Attached() {
		time.Sleep(10 * time.Millisecond)
	}
	if !cp.Attached() {
		t.Fatal("never attached")
	}
	// Kill the gateway node entirely.
	gw.Stop()
	tb.net.RemoveHost(tb.gwHost.ID())
	deadline = time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) && cp.Attached() {
		time.Sleep(10 * time.Millisecond)
	}
	if cp.Attached() {
		t.Fatal("still attached after gateway death")
	}
	flipMu.Lock()
	got := append([]bool(nil), flips...)
	flipMu.Unlock()
	if len(got) < 2 || got[0] != true || got[len(got)-1] != false {
		t.Fatalf("flips = %v", got)
	}
}

func TestIsLocalHeuristic(t *testing.T) {
	cfg := ConnProviderConfig{}.withDefaults()
	cases := map[netem.NodeID]bool{
		"10.0.0.1":     true,
		"192.168.1.20": true,
		"voicehoc.ch":  false,
		"ua.carol.net": false,
		"10.0.0.x":     false,
	}
	for id, want := range cases {
		if got := cfg.IsLocal(id); got != want {
			t.Errorf("IsLocal(%q) = %v, want %v", id, got, want)
		}
	}
}

// proxyFixture builds a proxy + SLP agent on a single node.
func proxyFixture(t *testing.T) (*Proxy, *netem.Host, *slp.Agent) {
	t.Helper()
	net := netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond})
	t.Cleanup(net.Close)
	host, err := net.AddHost("10.0.0.1", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	proto := aodv.New(host, aodv.SimConfig())
	agent := slp.NewAgent(host, slp.Config{})
	agent.AttachRouting(proto)
	if err := proto.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proto.Stop)
	if err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Stop)
	proxy := NewProxy(host, agent, nil, ProxyConfig{SLPTimeout: 200 * time.Millisecond})
	if err := proxy.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Stop)
	return proxy, host, agent
}

func register(t *testing.T, host *netem.Host, proxy *Proxy, user string, expires int) *sip.Message {
	t.Helper()
	conn, err := host.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	stack := sip.NewStack(conn, sip.SimConfig())
	t.Cleanup(stack.Close)
	req := sip.NewRequest(sip.MethodRegister, &sip.URI{Scheme: "sip", Host: "voicehoc.ch"})
	id := &sip.NameAddr{URI: &sip.URI{Scheme: "sip", User: user, Host: "voicehoc.ch"}}
	req.From = id.WithTag("t1")
	req.To = id
	req.CallID = stack.NewCallID()
	req.CSeq = sip.CSeq{Seq: 1, Method: sip.MethodRegister}
	req.Contact = []*sip.NameAddr{{URI: &sip.URI{Scheme: "sip", User: user, Host: "10.0.0.1", Port: 5070}}}
	req.Expires = expires
	resp, err := stack.Await(req, proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestProxyRegistrarLifecycle(t *testing.T) {
	proxy, host, agent := proxyFixture(t)
	resp := register(t, host, proxy, "alice", 60)
	if resp.StatusCode != sip.StatusOK {
		t.Fatalf("register status = %d", resp.StatusCode)
	}
	if got := proxy.Bindings(); len(got) != 1 || got[0] != "alice@voicehoc.ch" {
		t.Fatalf("bindings = %v", got)
	}
	if _, ok := agent.LookupCached("sip", "alice@voicehoc.ch"); !ok {
		t.Fatal("binding not advertised via SLP")
	}
	// Expires: 0 deregisters and withdraws the advert.
	resp = register(t, host, proxy, "alice", 0)
	if resp.StatusCode != sip.StatusOK {
		t.Fatalf("deregister status = %d", resp.StatusCode)
	}
	if got := proxy.Bindings(); len(got) != 0 {
		t.Fatalf("bindings after deregister = %v", got)
	}
	if _, ok := agent.LookupCached("sip", "alice@voicehoc.ch"); ok {
		t.Fatal("SLP advert survived deregistration")
	}
}

func TestProxyRejectsRemoteRegister(t *testing.T) {
	proxy, host, _ := proxyFixture(t)
	// A second node tries to use us as its registrar.
	other, err := host.Network().AddHost("10.0.0.9", netem.Position{X: 10})
	if err != nil {
		t.Fatal(err)
	}
	other.SetRouteProvider(directRoute{})
	host.SetRouteProvider(directRoute{})
	conn, err := other.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	stack := sip.NewStack(conn, sip.SimConfig())
	t.Cleanup(stack.Close)
	req := sip.NewRequest(sip.MethodRegister, &sip.URI{Scheme: "sip", Host: "voicehoc.ch"})
	id := &sip.NameAddr{URI: &sip.URI{Scheme: "sip", User: "mallory", Host: "voicehoc.ch"}}
	req.From = id.WithTag("t")
	req.To = id
	req.CallID = "c1"
	req.CSeq = sip.CSeq{Seq: 1, Method: sip.MethodRegister}
	req.Contact = []*sip.NameAddr{{URI: &sip.URI{Scheme: "sip", Host: "10.0.0.9", Port: 5062}}}
	resp, err := stack.Await(req, proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != sip.StatusNotFound {
		t.Fatalf("remote register status = %d, want 404", resp.StatusCode)
	}
}

type directRoute struct{}

func (directRoute) NextHop(dst netem.NodeID) (netem.NodeID, bool)  { return dst, true }
func (directRoute) RequestRoute(dst netem.NodeID, done func(bool)) { done(true) }

func TestProxyUnknownTargetIs404(t *testing.T) {
	proxy, host, _ := proxyFixture(t)
	conn, err := host.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	stack := sip.NewStack(conn, sip.SimConfig())
	t.Cleanup(stack.Close)
	req := sip.NewRequest(sip.MethodInvite, sip.MustParseURI("sip:ghost@voicehoc.ch"))
	req.From = &sip.NameAddr{URI: sip.MustParseURI("sip:a@voicehoc.ch")}
	req.From = req.From.WithTag("t")
	req.To = &sip.NameAddr{URI: sip.MustParseURI("sip:ghost@voicehoc.ch")}
	req.CallID = "c-404"
	req.CSeq = sip.CSeq{Seq: 1, Method: sip.MethodInvite}
	resp, err := stack.Await(req, proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != sip.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if proxy.Stats().Unresolved != 1 {
		t.Fatalf("stats = %+v", proxy.Stats())
	}
}

func TestProxyLoopDetection(t *testing.T) {
	proxy, host, _ := proxyFixture(t)
	conn, err := host.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	stack := sip.NewStack(conn, sip.SimConfig())
	t.Cleanup(stack.Close)
	req := sip.NewRequest(sip.MethodInvite, sip.MustParseURI("sip:bob@voicehoc.ch"))
	req.From = &sip.NameAddr{URI: sip.MustParseURI("sip:a@voicehoc.ch")}
	req.From = req.From.WithTag("t")
	req.To = &sip.NameAddr{URI: sip.MustParseURI("sip:bob@voicehoc.ch")}
	req.CallID = "c-loop"
	req.CSeq = sip.CSeq{Seq: 1, Method: sip.MethodInvite}
	// Forge a Via showing the request already passed through this proxy.
	req.Via = []*sip.Via{{Transport: "UDP", Host: "10.0.0.1", Port: 5060,
		Params: ";branch=z9hG4bK-old"}}
	resp, err := stack.Await(req, proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != sip.StatusLoopDetected {
		t.Fatalf("status = %d, want 482", resp.StatusCode)
	}
}

func TestProxyMaxForwardsExhausted(t *testing.T) {
	proxy, host, agent := proxyFixture(t)
	// Register a target so resolution succeeds and forwarding is reached.
	if err := agent.Register(slp.Service{Type: "sip", Key: "bob@voicehoc.ch",
		URL: "service:sip://10.0.0.9:5060"}); err != nil {
		t.Fatal(err)
	}
	conn, err := host.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	stack := sip.NewStack(conn, sip.SimConfig())
	t.Cleanup(stack.Close)
	req := sip.NewRequest(sip.MethodInvite, sip.MustParseURI("sip:bob@voicehoc.ch"))
	req.From = &sip.NameAddr{URI: sip.MustParseURI("sip:a@voicehoc.ch")}
	req.From = req.From.WithTag("t")
	req.To = &sip.NameAddr{URI: sip.MustParseURI("sip:bob@voicehoc.ch")}
	req.CallID = "c-mf"
	req.CSeq = sip.CSeq{Seq: 1, Method: sip.MethodInvite}
	req.MaxForwards = 0
	resp, err := stack.Await(req, proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != sip.StatusTooManyHops {
		t.Fatalf("status = %d, want 483", resp.StatusCode)
	}
}
