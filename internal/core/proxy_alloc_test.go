package core

import (
	"testing"
	"time"

	"siphoc/internal/netem"
	"siphoc/internal/sip"
	"siphoc/internal/testutil"
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
	// 45 measured, none of them the medium's (its seven frames ride recycled
	// wire buffers) and 3 the responses the server transactions keep for
	// replay; deep-copied headers, string keys, a marshalled copy per send and
	// a closure per timer step made it 259, and a goroutine per server
	// transaction and two channels per client transaction 48.
	const budget = 45
	if allocs := testing.AllocsPerRun(50, call); allocs > budget {
		t.Errorf("%.0f allocations per INVITE transaction through a proxy, budget %d", allocs, budget)
	} else {
		t.Logf("%.0f allocations per INVITE transaction through a proxy", allocs)
	}
}
