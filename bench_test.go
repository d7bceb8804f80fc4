// Benchmarks backing the experiment index in DESIGN.md §4: one benchmark
// per reproducible figure/claim (E1, E8, E9) plus micro-benchmarks for the
// protocol substrates on the hot path. The full parameter sweeps with shape
// assertions live in cmd/experiments; these benchmarks provide the
// regenerable ns/op numbers recorded in EXPERIMENTS.md.
package siphoc_test

import (
	"fmt"
	"testing"
	"time"

	"siphoc"
	"siphoc/internal/core"
	"siphoc/internal/netem"
	"siphoc/internal/routing/aodv"
	"siphoc/internal/rtp"
	"siphoc/internal/sip"
	"siphoc/internal/slp"
)

// benchChain builds a registered Alice/Bob pair on an n-node chain.
func benchChain(b *testing.B, n int, routing siphoc.RoutingKind) (*siphoc.Scenario, *siphoc.Phone) {
	b.Helper()
	sc, err := siphoc.NewScenarioWith(siphoc.WithRoutingKind(routing))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sc.Close)
	nodes, err := sc.Chain(n, 90)
	if err != nil {
		b.Fatal(err)
	}
	alice, err := nodes[0].NewPhone("alice", "voicehoc.ch")
	if err != nil {
		b.Fatal(err)
	}
	bob, err := nodes[n-1].NewPhone("bob", "voicehoc.ch")
	if err != nil {
		b.Fatal(err)
	}
	register := func(ph *siphoc.Phone) {
		var err error
		for range 5 {
			if err = ph.Register(); err == nil {
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
		b.Fatal(err)
	}
	register(alice)
	register(bob)
	// Warm the caller-side SLP cache so iterations measure call setup,
	// not epidemic dissemination.
	if _, err := nodes[0].SLP().Lookup("sip", "bob@voicehoc.ch", 10*time.Second); err != nil {
		b.Fatal(err)
	}
	return sc, alice
}

func dialOnce(b *testing.B, alice *siphoc.Phone) {
	b.Helper()
	call, err := alice.Dial("bob@voicehoc.ch")
	if err != nil {
		b.Fatal(err)
	}
	if err := call.WaitEstablished(20 * time.Second); err != nil {
		b.Fatal(err)
	}
	if err := call.Hangup(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkE1CallSetupFlow measures the paper's Figure 3 flow: a complete
// INVITE/200/ACK/BYE exchange through two SIPHoc proxies over a 2-hop MANET.
func BenchmarkE1CallSetupFlow(b *testing.B) {
	_, alice := benchChain(b, 3, siphoc.RoutingAODV)
	dialOnce(b, alice) // warm the route
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		dialOnce(b, alice)
	}
}

// BenchmarkE8SetupDelayVsHops measures warm-route call setup against hop
// count for both routing protocols (experiment E8's steady-state rows).
func BenchmarkE8SetupDelayVsHops(b *testing.B) {
	for _, routing := range []siphoc.RoutingKind{siphoc.RoutingAODV, siphoc.RoutingOLSR} {
		for _, hops := range []int{1, 2, 4, 6} {
			b.Run(fmt.Sprintf("%s/hops=%d", routing, hops), func(b *testing.B) {
				_, alice := benchChain(b, hops+1, routing)
				dialOnce(b, alice)
				b.ReportAllocs()
				b.ResetTimer()
				for b.Loop() {
					dialOnce(b, alice)
				}
			})
		}
	}
}

// BenchmarkE9DiscoveryOverhead measures service-discovery propagation: each
// iteration registers a fresh binding at one end of an 6-node chain and
// resolves it from the other end. Sub-benchmarks compare the paper's
// piggyback mode with the multicast-SLP baseline; the svcframes/op metric
// shows the dedicated-frame cost (0 for piggyback).
func BenchmarkE9DiscoveryOverhead(b *testing.B) {
	for _, mode := range []slp.Mode{slp.ModePiggyback, slp.ModeMulticast} {
		b.Run(mode.String(), func(b *testing.B) {
			net := netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond})
			b.Cleanup(net.Close)
			hosts, err := netem.Chain(net, 6, 90, "10.0.0")
			if err != nil {
				b.Fatal(err)
			}
			agents := make([]*slp.Agent, len(hosts))
			for i, h := range hosts {
				proto := aodv.New(h, aodv.SimConfig())
				agents[i] = slp.NewAgent(h, slp.Config{Mode: mode})
				agents[i].AttachRouting(proto)
				if err := proto.Start(); err != nil {
					b.Fatal(err)
				}
				b.Cleanup(proto.Stop)
				if err := agents[i].Start(); err != nil {
					b.Fatal(err)
				}
				b.Cleanup(agents[i].Stop)
			}
			net.ResetStats()
			b.ReportAllocs()
			b.ResetTimer()
			i := 0
			for b.Loop() {
				i++
				key := fmt.Sprintf("user%d@voicehoc.ch", i)
				if err := agents[0].Register(slp.Service{
					Type: "sip", Key: key, URL: "service:sip://10.0.0.1:5060",
				}); err != nil {
					b.Fatal(err)
				}
				if _, err := agents[len(agents)-1].Lookup("sip", key, 20*time.Second); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := net.Stats()
			b.ReportMetric(float64(st.ServiceFrames)/float64(b.N), "svcframes/op")
			b.ReportMetric(float64(st.ServiceBytes)/float64(b.N), "svcB/op")
			b.ReportMetric(float64(st.RoutingBytes)/float64(b.N), "routingB/op")
		})
	}
}

// BenchmarkE5InternetCall measures a MANET-to-Internet call through the
// gateway tunnel (experiment E5's steady-state cost).
func BenchmarkE5InternetCall(b *testing.B) {
	sc, err := siphoc.NewScenarioWith(siphoc.WithInternet(0))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sc.Close)
	prov, err := sc.AddProvider(siphoc.ProviderConfig{Domain: "voicehoc.ch"})
	if err != nil {
		b.Fatal(err)
	}
	prov.AddAccount("alice")
	prov.AddAccount("carol")
	if _, err := sc.AddNode("10.0.0.1", siphoc.Position{X: 50}, siphoc.WithGateway()); err != nil {
		b.Fatal(err)
	}
	node, err := sc.AddNode("10.0.0.2", siphoc.Position{})
	if err != nil {
		b.Fatal(err)
	}
	carol, err := sc.AddInternetPhone("carol", "voicehoc.ch", "ua.carol.net")
	if err != nil {
		b.Fatal(err)
	}
	if err := carol.Register(); err != nil {
		b.Fatal(err)
	}
	if err := sc.WaitAttached(node, 30*time.Second); err != nil {
		b.Fatal(err)
	}
	alice, err := node.NewPhone("alice", "voicehoc.ch")
	if err != nil {
		b.Fatal(err)
	}
	if err := alice.Register(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		call, err := alice.Dial("carol@voicehoc.ch")
		if err != nil {
			b.Fatal(err)
		}
		if err := call.WaitEstablished(20 * time.Second); err != nil {
			b.Fatal(err)
		}
		if err := call.Hangup(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks (hot paths) ---

func BenchmarkSIPParse(b *testing.B) {
	raw := []byte("INVITE sip:bob@voicehoc.ch SIP/2.0\r\n" +
		"Via: SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK-abc\r\n" +
		"From: \"Alice\" <sip:alice@voicehoc.ch>;tag=1928\r\n" +
		"To: <sip:bob@voicehoc.ch>\r\n" +
		"Call-ID: a84b4c76e66710@10.0.0.1\r\n" +
		"CSeq: 314159 INVITE\r\n" +
		"Contact: <sip:alice@10.0.0.1:5062>\r\n" +
		"Max-Forwards: 70\r\nContent-Length: 0\r\n\r\n")
	b.ReportAllocs()
	for b.Loop() {
		if _, err := sip.Parse(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSIPClone copies a parsed INVITE the way every forwarding step does.
func BenchmarkSIPClone(b *testing.B) {
	m, err := sip.Parse([]byte("INVITE sip:bob@voicehoc.ch SIP/2.0\r\n" +
		"Via: SIP/2.0/UDP 10.0.0.2:5060;branch=z9hG4bK-def\r\n" +
		"Via: SIP/2.0/UDP 10.0.0.1:5062;branch=z9hG4bK-abc\r\n" +
		"Record-Route: <sip:10.0.0.2:5060;lr>\r\n" +
		"From: <sip:alice@voicehoc.ch>;tag=1928\r\n" +
		"To: <sip:bob@voicehoc.ch>\r\n" +
		"Call-ID: a84b4c76e66710@10.0.0.1\r\n" +
		"CSeq: 314159 INVITE\r\n" +
		"Contact: <sip:alice@10.0.0.1:5062>\r\n" +
		"Max-Forwards: 69\r\nContent-Type: application/sdp\r\nContent-Length: 4\r\n\r\nv=0\r"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		_ = m.Clone()
	}
}

// neighbours routes every destination as a 1-hop neighbour.
type neighbours struct{}

func (neighbours) NextHop(dst netem.NodeID) (netem.NodeID, bool)  { return dst, true }
func (neighbours) RequestRoute(dst netem.NodeID, done func(bool)) { done(true) }

// BenchmarkSIPProxyHop runs one INVITE transaction from a user agent through
// a SIPHoc proxy to a second user agent that answers 200: every message is
// parsed, copied, re-marshalled and matched to its transactions once per
// node, with no routing protocol or service lookup in the way (the
// Request-URI names the callee's endpoint).
func BenchmarkSIPProxyHop(b *testing.B) {
	net := netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond})
	b.Cleanup(net.Close)
	stacks := make(map[string]*sip.Stack)
	for i, id := range []string{"ua", "p", "ub"} {
		h, err := net.AddHost(netem.NodeID(id), netem.Position{X: float64(10 * i)})
		if err != nil {
			b.Fatal(err)
		}
		h.SetRouteProvider(neighbours{})
		if id == "p" {
			proxy := core.NewProxy(h, slp.NewAgent(h, slp.Config{}), nil, core.ProxyConfig{})
			if err := proxy.Start(); err != nil {
				b.Fatal(err)
			}
			b.Cleanup(proxy.Stop)
			continue
		}
		conn, err := h.Listen(5062)
		if err != nil {
			b.Fatal(err)
		}
		stacks[id] = sip.NewStack(conn, sip.SimConfig())
		b.Cleanup(stacks[id].Close)
	}
	stacks["ub"].OnRequest(func(tx *sip.ServerTx) { _ = tx.RespondCode(sip.StatusOK, "") })
	invite, err := sip.Parse([]byte("INVITE sip:bob@ub:5062 SIP/2.0\r\n" +
		"From: <sip:alice@voicehoc.ch>;tag=a\r\nTo: <sip:bob@voicehoc.ch>\r\n" +
		"Call-ID: hop@ua\r\nCSeq: 1 INVITE\r\nContact: <sip:alice@ua:5062>\r\n" +
		"Max-Forwards: 70\r\n\r\n"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if resp, err := stacks["ua"].Await(invite.Clone(), sip.Addr{Node: "p", Port: sip.DefaultPort}); err != nil || resp.StatusCode != sip.StatusOK {
			b.Fatalf("INVITE through the proxy: %v, %v", resp, err)
		}
	}
}

// BenchmarkSIPMarshal renders an INVITE into a slice of its own, AppendTo(nil).
func BenchmarkSIPMarshal(b *testing.B) {
	m := sip.NewRequest(sip.MethodInvite, sip.MustParseURI("sip:bob@voicehoc.ch"))
	m.Via = []*sip.Via{{Transport: "UDP", Host: "10.0.0.1", Port: 5060,
		Params: ";branch=z9hG4bK-abc"}}
	m.From = &sip.NameAddr{URI: sip.MustParseURI("sip:alice@voicehoc.ch")}
	m.From = m.From.WithTag("1928")
	m.To = &sip.NameAddr{URI: sip.MustParseURI("sip:bob@voicehoc.ch")}
	m.CallID = "a84b4c76e66710@10.0.0.1"
	m.CSeq = sip.CSeq{Seq: 314159, Method: sip.MethodInvite}
	b.ReportAllocs()
	for b.Loop() {
		_ = m.AppendTo(nil)
	}
}

func BenchmarkAODVRREQCodec(b *testing.B) {
	m := &aodv.RREQ{ID: 42, HopCount: 3, TTL: 30, Orig: "10.0.0.1", OrigSeq: 7,
		Dst: "10.0.0.9", DstSeq: 5, UnknownSeq: true}
	var raw []byte
	b.ReportAllocs()
	for b.Loop() {
		raw = m.AppendTo(raw[:0])
		if _, err := aodv.ParseRREQ(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSLPPayloadCodec(b *testing.B) {
	p := &slp.Payload{
		Adverts: []slp.Advert{{
			Type: "sip", Key: "alice@voicehoc.ch",
			URL: "service:sip://10.0.0.1:5060", Origin: "10.0.0.1", Seq: 7, TTL: 30 * time.Second,
		}},
		Queries: []slp.Query{{Type: "sip", Key: "bob@voicehoc.ch", Origin: "10.0.0.2", ID: 3, Hops: 8}},
	}
	b.ReportAllocs()
	for b.Loop() {
		raw := p.Marshal()
		if _, err := slp.ParsePayload(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRTPOverMANET measures media throughput across a 2-hop MANET path
// (frames are paced at the codec rate, so ns/op reflects the 20ms frame
// interval; the metric of interest is zero loss at line rate).
func BenchmarkRTPOverMANET(b *testing.B) {
	sc, alice := benchChain(b, 3, siphoc.RoutingAODV)
	_ = sc
	call, err := alice.Dial("bob@voicehoc.ch")
	if err != nil {
		b.Fatal(err)
	}
	if err := call.WaitEstablished(20 * time.Second); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = call.Hangup() })
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		if n := call.SendVoice(1); n != 1 {
			b.Fatal("frame not sent")
		}
		// Pace at the codec frame rate, as a phone would; ns/op is
		// therefore ≈ the 20ms frame interval when the path keeps up.
		time.Sleep(rtp.FrameDuration)
	}
}
