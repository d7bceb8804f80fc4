package siphoc

import (
	"strings"
	"testing"
	"time"
)

const (
	domain      = "voicehoc.ch"
	callTimeout = 15 * time.Second
)

func newChainScenario(t *testing.T, n int, opts ...ScenarioOption) (*Scenario, []*Node) {
	t.Helper()
	sc, err := NewScenarioWith(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sc.Close)
	nodes, err := sc.Chain(n, 90)
	if err != nil {
		t.Fatal(err)
	}
	return sc, nodes
}

// registerPhone creates and registers a phone, retrying registration a few
// times to ride out initial route discovery on cold networks.
func registerPhone(t *testing.T, n *Node, user string) *Phone {
	t.Helper()
	ph, err := n.NewPhone(user, domain)
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for range 5 {
		if lastErr = ph.Register(); lastErr == nil {
			return ph
		}
		n.Host().Clock().Sleep(50 * time.Millisecond)
	}
	t.Fatalf("register %s: %v", user, lastErr)
	return nil
}

// TestCallWithinMANET is the paper's Figure 3 flow end to end: two users on
// opposite ends of a multihop chain register with their local proxies and
// establish a call with no centralized server anywhere.
func TestCallWithinMANET(t *testing.T) {
	_, nodes := newChainScenario(t, 3)
	alice := registerPhone(t, nodes[0], "alice")
	bob := registerPhone(t, nodes[2], "bob")
	_ = bob

	call, err := alice.Dial("bob@" + domain)
	if err != nil {
		t.Fatal(err)
	}
	if err := call.WaitEstablished(callTimeout); err != nil {
		t.Fatalf("call setup: %v", err)
	}
	if call.SetupDuration() <= 0 {
		t.Fatal("setup duration not recorded")
	}
	// Voice flows end to end.
	if sent := call.SendVoice(20); sent != 20 {
		t.Fatalf("sent %d frames", sent)
	}
	// Find Bob's call leg and verify media arrived.
	var bobCall *Call
	select {
	case bobCall = <-bob.Incoming():
	case <-time.After(time.Second):
		t.Fatal("bob never saw the incoming call")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && bobCall.MediaStats().Received < 20 {
		time.Sleep(10 * time.Millisecond)
	}
	st := bobCall.MediaStats()
	if st.Received != 20 || st.Lost != 0 {
		t.Fatalf("media stats = %+v", st)
	}
	if st.MOS < 3.5 {
		t.Fatalf("MOS = %f over a clean 2-hop path", st.MOS)
	}
	// Tear down.
	if err := call.Hangup(); err != nil {
		t.Fatalf("hangup: %v", err)
	}
	if err := bobCall.WaitEnded(5 * time.Second); err != nil {
		t.Fatalf("bob teardown: %v", err)
	}
	// Both SLP-based resolutions happened: Alice's proxy resolved Bob via
	// MANET SLP, Bob's proxy delivered locally.
	if s := nodes[0].Proxy().Stats(); s.SLPResolutions == 0 {
		t.Fatalf("caller proxy never used SLP: %+v", s)
	}
	if s := nodes[2].Proxy().Stats(); s.LocalDeliveries == 0 {
		t.Fatalf("callee proxy never delivered locally: %+v", s)
	}
}

func TestCallWithinMANETOverOLSR(t *testing.T) {
	_, nodes := newChainScenario(t, 4, WithRoutingKind(RoutingOLSR))
	alice := registerPhone(t, nodes[0], "alice")
	bob := registerPhone(t, nodes[3], "bob")
	_ = bob
	call, err := alice.Dial("bob@" + domain)
	if err != nil {
		t.Fatal(err)
	}
	if err := call.WaitEstablished(callTimeout); err != nil {
		t.Fatalf("call setup over OLSR: %v", err)
	}
	if err := call.Hangup(); err != nil {
		t.Fatal(err)
	}
}

func TestCallToUnknownUserFails(t *testing.T) {
	_, nodes := newChainScenario(t, 2, virtualRadio())
	alice := registerPhone(t, nodes[0], "alice")
	call, err := alice.Dial("nobody@" + domain)
	if err != nil {
		t.Fatal(err)
	}
	if err := call.WaitEstablished(callTimeout); err == nil {
		t.Fatal("call to unknown user established")
	}
	if call.State() != CallFailed {
		t.Fatalf("state = %v", call.State())
	}
	if code := call.FailCode(); code != 404 && code != 408 {
		t.Fatalf("fail code = %d", code)
	}
}

func TestCalleeRejectsCall(t *testing.T) {
	sc, nodes := newChainScenario(t, 2)
	_ = sc
	alice := registerPhone(t, nodes[0], "alice")
	bobNode := nodes[1]
	bob, err := bobNode.NewPhoneWith(PhoneConfig{User: "bob", Domain: domain, NoAutoAnswer: true})
	if err != nil {
		t.Fatal(err)
	}
	for range 5 {
		if err = bob.Register(); err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	call, err := alice.Dial("bob@" + domain)
	if err != nil {
		t.Fatal(err)
	}
	var inc *Call
	select {
	case inc = <-bob.Incoming():
	case <-time.After(callTimeout):
		t.Fatal("bob never rang")
	}
	if err := inc.Reject(486); err != nil {
		t.Fatal(err)
	}
	if err := call.WaitEstablished(callTimeout); err == nil {
		t.Fatal("rejected call established")
	}
	if call.FailCode() != 486 {
		t.Fatalf("fail code = %d", call.FailCode())
	}
}

func TestSLPDumpShowsRegistration(t *testing.T) {
	_, nodes := newChainScenario(t, 1)
	registerPhone(t, nodes[0], "alice")
	dump := nodes[0].SLP().Dump()
	for _, want := range []string{"loaded routing plugin: AODV", "sip/alice@" + domain} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}
}

// internetScenario builds: MANET chain of n nodes where the last node is a
// gateway, a provider for voicehoc.ch, and an Internet-side phone
// carol@voicehoc.ch.
func internetScenario(t *testing.T, n int) (*Scenario, []*Node, *Provider, *Phone) {
	t.Helper()
	sc, err := NewScenarioWith(WithInternet(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sc.Close)
	prov, err := sc.AddProvider(ProviderConfig{Domain: domain})
	if err != nil {
		t.Fatal(err)
	}
	prov.AddAccount("alice")
	prov.AddAccount("bob")
	prov.AddAccount("carol")
	nodes := make([]*Node, 0, n)
	for i := range n {
		var opts []NodeOption
		if i == n-1 {
			opts = append(opts, WithGateway())
		}
		node, err := sc.AddNode(NodeID("10.0.0."+string(rune('1'+i))), Position{X: float64(i) * 90}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	carol, err := sc.AddInternetPhone("carol", domain, "ua.carol.net")
	if err != nil {
		t.Fatal(err)
	}
	if err := carol.Register(); err != nil {
		t.Fatalf("carol register: %v", err)
	}
	return sc, nodes, prov, carol
}

// TestOutboundInternetCall is the paper's §3.2 forward path: a MANET user
// calls an Internet user through a gateway node's tunnel.
func TestOutboundInternetCall(t *testing.T) {
	sc, nodes, _, carol := internetScenario(t, 3)
	_ = carol
	if err := sc.WaitAttached(nodes[0], 20*time.Second); err != nil {
		t.Fatal(err)
	}
	alice := registerPhone(t, nodes[0], "alice")
	call, err := alice.Dial("carol@" + domain)
	if err != nil {
		t.Fatal(err)
	}
	if err := call.WaitEstablished(callTimeout); err != nil {
		t.Fatalf("MANET->Internet call: %v", err)
	}
	// Media crosses the tunnel.
	if sent := call.SendVoice(10); sent != 10 {
		t.Fatalf("sent %d", sent)
	}
	if err := call.Hangup(); err != nil {
		t.Fatal(err)
	}
	if s := nodes[0].Proxy().Stats(); s.InternetRouted == 0 {
		t.Fatalf("proxy stats: %+v", s)
	}
}

// TestInboundInternetCall is the paper's §3.2 reverse path: once the MANET
// is attached, calls from the Internet reach MANET users at their official
// SIP addresses.
func TestInboundInternetCall(t *testing.T) {
	sc, nodes, prov, carol := internetScenario(t, 3)
	if err := sc.WaitAttached(nodes[0], 20*time.Second); err != nil {
		t.Fatal(err)
	}
	alice := registerPhone(t, nodes[0], "alice")
	_ = alice
	// Wait for the proxy's upstream registration to land.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := prov.Binding("alice@" + domain); ok {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, ok := prov.Binding("alice@" + domain); !ok {
		t.Fatalf("upstream registration never reached the provider (status %d)",
			nodes[0].Proxy().UpstreamStatus("alice@"+domain))
	}
	call, err := carol.Dial("alice@" + domain)
	if err != nil {
		t.Fatal(err)
	}
	if err := call.WaitEstablished(callTimeout); err != nil {
		t.Fatalf("Internet->MANET call: %v", err)
	}
	if err := call.Hangup(); err != nil {
		t.Fatal(err)
	}
}

// TestProviderInteropMatrix reproduces the paper's provider experience:
// providers whose proxy lives at their domain work transparently; a
// provider requiring a special outbound proxy breaks because SIPHoc
// overwrites the outbound proxy with localhost (§3.2, open issue).
func TestProviderInteropMatrix(t *testing.T) {
	sc, err := NewScenarioWith(WithInternet(0), virtualRadio())
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	good1, err := sc.AddProvider(ProviderConfig{Domain: "siphoc.ch"})
	if err != nil {
		t.Fatal(err)
	}
	good2, err := sc.AddProvider(ProviderConfig{Domain: "netvoip.ch"})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := sc.AddProvider(ProviderConfig{Domain: "polyphone.ethz.ch", ProxyHost: "sipgate.ethz.ch"})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Provider{good1, good2, bad} {
		p.AddAccount("alice")
	}
	gw, err := sc.AddNode("10.0.0.1", Position{}, WithGateway())
	if err != nil {
		t.Fatal(err)
	}
	node, err := sc.AddNode("10.0.0.2", Position{X: 50})
	if err != nil {
		t.Fatal(err)
	}
	_ = gw
	if err := sc.WaitAttached(node, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	results := make(map[string]bool)
	for _, p := range []*Provider{good1, good2, bad} {
		ph, err := node.NewPhone("alice", p.Domain())
		if err != nil {
			t.Fatal(err)
		}
		if err := ph.Register(); err != nil {
			t.Fatalf("local register at %s: %v", p.Domain(), err)
		}
		aor := "alice@" + p.Domain()
		clk := sc.Clock()
		deadline := clk.Now().Add(15 * time.Second)
		for clk.Now().Before(deadline) && node.Proxy().UpstreamStatus(aor) == 0 {
			clk.Sleep(20 * time.Millisecond)
		}
		results[p.Domain()] = node.Proxy().UpstreamStatus(aor) == 200
	}
	if !results["siphoc.ch"] || !results["netvoip.ch"] {
		t.Fatalf("well-behaved providers failed: %+v", results)
	}
	if results["polyphone.ethz.ch"] {
		t.Fatal("outbound-proxy provider unexpectedly worked — the paper's open issue should reproduce")
	}
}

// TestGatewayChurnTransparency (E10): calls keep working after the gateway
// disappears and a new one shows up.
func TestGatewayFailover(t *testing.T) {
	sc, err := NewScenarioWith(WithInternet(0))
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	prov, err := sc.AddProvider(ProviderConfig{Domain: domain})
	if err != nil {
		t.Fatal(err)
	}
	prov.AddAccount("alice")
	node, err := sc.AddNode("10.0.0.1", Position{})
	if err != nil {
		t.Fatal(err)
	}
	gw1, err := sc.AddNode("10.0.0.2", Position{X: 50}, WithGateway())
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.WaitAttached(node, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	// Kill the gateway: the node must detach.
	sc.RemoveNode(gw1.ID())
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && node.InternetAttached() {
		time.Sleep(20 * time.Millisecond)
	}
	if node.InternetAttached() {
		t.Fatal("node still attached after gateway death")
	}
	// Bring up a replacement gateway: the node must re-attach.
	if _, err := sc.AddNode("10.0.0.3", Position{X: 60}, WithGateway()); err != nil {
		t.Fatal(err)
	}
	if err := sc.WaitAttached(node, 30*time.Second); err != nil {
		t.Fatalf("failover: %v", err)
	}
}
