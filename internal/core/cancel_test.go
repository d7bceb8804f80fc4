package core

import (
	"testing"
	"time"

	"siphoc/internal/netem"
	"siphoc/internal/routing/aodv"
	"siphoc/internal/sip"
	"siphoc/internal/slp"
)

// shortTTLFixture builds a single node with SLP + AODV but no proxy, so
// tests can create proxies with custom configurations.
func shortTTLFixture(t *testing.T) (*netem.Network, *netem.Host, *slp.Agent) {
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
	return net, host, agent
}

// TestCancelWithoutMatchingInviteIs481 covers the proxy's CANCEL handling
// when no INVITE transaction matches (RFC 3261 §9.2).
func TestCancelWithoutMatchingInviteIs481(t *testing.T) {
	proxy, host, _ := proxyFixture(t)
	conn, err := host.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	stack := sip.NewStack(conn, sip.SimConfig())
	t.Cleanup(stack.Close)
	cancel := sip.NewRequest(sip.MethodCancel, sip.MustParseURI("sip:bob@voicehoc.ch"))
	cancel.From = &sip.NameAddr{URI: sip.MustParseURI("sip:a@voicehoc.ch")}
	cancel.From = cancel.From.WithTag("t")
	cancel.To = &sip.NameAddr{URI: sip.MustParseURI("sip:bob@voicehoc.ch")}
	cancel.CallID = "c-nomatch"
	cancel.CSeq = sip.CSeq{Seq: 1, Method: sip.MethodCancel}
	resp, err := stack.Await(cancel, proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != sip.StatusCallDoesNotExist {
		t.Fatalf("status = %d, want 481", resp.StatusCode)
	}
}

// TestBindingExpiryHidesUser verifies the registrar binding TTL: once it
// lapses, resolution no longer finds the local user.
func TestBindingExpiryHidesUser(t *testing.T) {
	net, host, agent := shortTTLFixture(t)
	_ = net
	proxy := NewProxy(host, agent, nil, ProxyConfig{
		SLPTimeout: 100 * time.Millisecond,
		BindingTTL: 150 * time.Millisecond,
	})
	if err := proxy.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Stop)
	resp := register(t, host, proxy, "alice", -1) // -1: use BindingTTL default
	if resp.StatusCode != sip.StatusOK {
		t.Fatalf("register = %d", resp.StatusCode)
	}
	if got := proxy.Bindings(); len(got) != 1 {
		t.Fatalf("bindings = %v", got)
	}
	time.Sleep(300 * time.Millisecond)
	if got := proxy.Bindings(); len(got) != 0 {
		t.Fatalf("expired binding still listed: %v", got)
	}
}
