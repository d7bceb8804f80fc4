package core

import (
	"testing"
	"time"

	"siphoc/internal/netem"
	"siphoc/internal/sip"
	"siphoc/internal/testutil"
	"siphoc/internal/voip"
)

// neighbours routes every destination as a 1-hop neighbour.
type neighbours struct{}

func (neighbours) NextHop(dst netem.NodeID) (netem.NodeID, bool)  { return dst, true }
func (neighbours) RequestRoute(dst netem.NodeID, done func(bool)) { done(true) }

// TestProxyHopAllocBudget pins what one INVITE transaction costs end to end
// when a SIPHoc proxy sits between the two user agents: the INVITE parsed,
// forwarded with a Via and a Record-Route, a 100 sent back, and the 200
// parsed and relayed with the Via popped — four messages parsed, three
// client or server transactions on each side of the proxy, seven frames on
// the medium.
func TestProxyHopAllocBudget(t *testing.T) {
	if testutil.Race {
		t.Skip("allocation counts are not meaningful under -race")
	}
	net := netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond})
	t.Cleanup(net.Close)
	stacks := make(map[string]*sip.Stack)
	for i, id := range []string{"ua", "p", "ub"} {
		h, err := net.AddHost(netem.NodeID(id), netem.Position{X: float64(10 * i)})
		if err != nil {
			t.Fatal(err)
		}
		h.SetRouteProvider(neighbours{})
		if id == "p" {
			proxy := NewProxy(h, &stubDirectory{}, nil, ProxyConfig{})
			if err := proxy.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(proxy.Stop)
			continue
		}
		conn, err := h.Listen(5062)
		if err != nil {
			t.Fatal(err)
		}
		stacks[id] = sip.NewStack(conn, sip.SimConfig())
		t.Cleanup(stacks[id].Close)
	}
	stacks["ub"].OnRequest(func(tx *sip.ServerTx) { _ = tx.RespondCode(sip.StatusOK, "") })
	// The Request-URI names the callee's endpoint, so the proxy resolves
	// nothing: what is counted is SIP and the medium under it.
	invite, err := sip.Parse([]byte("INVITE sip:bob@ub:5062 SIP/2.0\r\n" +
		"From: <sip:alice@voicehoc.ch>;tag=a\r\nTo: <sip:bob@voicehoc.ch>\r\n" +
		"Call-ID: budget@ua\r\nCSeq: 1 INVITE\r\nContact: <sip:alice@ua:5062>\r\n" +
		"Max-Forwards: 70\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	proxy := sip.Addr{Node: "p", Port: sip.DefaultPort}
	call := func() {
		if resp, err := stacks["ua"].Await(invite.Clone(), proxy); err != nil || resp.StatusCode != sip.StatusOK {
			t.Fatalf("INVITE through the proxy: %v, %v", resp, err)
		}
	}
	call()
	// 35 measured, none of them the medium's (its seven frames ride recycled
	// wire buffers). A server transaction keeps the response itself for
	// replay, and a client transaction is one block with its Via and one
	// bound timer callback; a marshalled copy per response kept, five
	// allocations per client transaction and a span label built with tracing
	// off made it 45. Deep-copied headers, string keys, a marshalled copy per
	// send and a closure per timer step made it 259, and a goroutine per
	// server transaction and two channels per client transaction 48.
	const budget = 35
	if allocs := testing.AllocsPerRun(50, call); allocs > budget {
		t.Errorf("%.0f allocations per INVITE transaction through a proxy, budget %d", allocs, budget)
	} else {
		t.Logf("%.0f allocations per INVITE transaction through a proxy", allocs)
	}
}

// TestCallAllocBudget pins what one whole call costs: alice dials bob, each
// phone behind the SIPHoc proxy on its own node, on static one-hop routes and
// a directory that knows where bob's proxy is — INVITE, 100s, 180 and 200
// relayed, ACK, five voice frames each way, BYE and its 200, the callee's
// call ended. Everything the call keeps is counted: its messages, both
// transactions at every hop, the dialogs, both media sessions and their
// streams, and the waits of the test itself.
func TestCallAllocBudget(t *testing.T) {
	if testutil.Race {
		t.Skip("allocation counts are not meaningful under -race")
	}
	net := netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond})
	t.Cleanup(net.Close)
	phones := make(map[string]*voip.Phone)
	for i, user := range []string{"alice", "bob"} {
		h, err := net.AddHost(netem.NodeID(user[:1]), netem.Position{X: float64(10 * i)})
		if err != nil {
			t.Fatal(err)
		}
		h.SetRouteProvider(neighbours{})
		dir := &stubDirectory{cached: cachedSIP("bob@voicehoc.ch", "b:5060")}
		proxy := NewProxy(h, dir, nil, ProxyConfig{})
		if err := proxy.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(proxy.Stop)
		ph := voip.New(h, voip.Config{User: user, Domain: "voicehoc.ch", OutboundProxy: proxy.Addr()})
		if err := ph.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ph.Stop)
		if err := ph.Register(); err != nil {
			t.Fatal(err)
		}
		phones[user] = ph
	}
	call := func() {
		c, err := phones["alice"].Dial("bob@voicehoc.ch")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.WaitEstablished(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		in := <-phones["bob"].Incoming()
		out, back := c.StartVoice(5), in.StartVoice(5)
		if out == nil || back == nil || out.Wait() != 5 || back.Wait() != 5 {
			t.Fatal("five frames each way not sent")
		}
		if err := c.Hangup(); err != nil {
			t.Fatal(err)
		}
		if err := in.WaitEnded(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	call()
	// 187 measured. The SDP offer and answer written and read in place, the
	// responses replayed from the messages the server transactions keep, a
	// client transaction in one block with one bound timer callback, media
	// sessions and streams on inline scratch, and span labels built only for
	// a live span took it from 278.
	const budget = 187
	// A retransmission, which a loaded host can provoke, parses and relays
	// one more message: the least of three rounds is what the call costs.
	allocs := testing.AllocsPerRun(10, call)
	for range 2 {
		allocs = min(allocs, testing.AllocsPerRun(10, call))
	}
	if allocs > budget {
		t.Errorf("%.0f allocations per call through two proxies, budget %d", allocs, budget)
	} else {
		t.Logf("%.0f allocations per call through two proxies", allocs)
	}
}
