package olsr

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
)

func TestHelloCodec(t *testing.T) {
	in := &Hello{Neighbors: []HelloNeighbor{
		{Addr: "a", Link: LinkSym, MPR: true},
		{Addr: "b", Link: LinkAsym},
	}}
	body := in.AppendTo(nil)
	out, ok := decodeHello(body)
	if !ok {
		t.Fatal("HELLO rejected")
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("mismatch: %+v vs %+v", in, out)
	}
	if _, ok := decodeHello([]byte{0, 9}); ok {
		t.Fatal("truncated HELLO accepted")
	}
}

func TestTCCodec(t *testing.T) {
	in := &TC{Orig: "router-7", Seq: 1000, ANSN: 42, TTL: 16, Selectors: []netem.NodeID{"x", "y"}}
	out, ok := decodeTC(in.AppendTo(nil))
	if !ok {
		t.Fatal("TC rejected")
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("mismatch: %+v vs %+v", in, out)
	}
}

func TestTCCodecQuick(t *testing.T) {
	f := func(orig string, seq, ansn uint16, ttl uint8, sels []string) bool {
		if len(orig) > 500 || len(sels) > 50 {
			return true
		}
		in := &TC{Orig: netem.NodeID(orig), Seq: seq, ANSN: ansn, TTL: ttl}
		for _, s := range sels {
			if len(s) > 500 {
				return true
			}
			in.Selectors = append(in.Selectors, netem.NodeID(s))
		}
		body := in.AppendTo(nil)
		out, ok := decodeTC(body)
		return ok && reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestANSNOrdering(t *testing.T) {
	cases := []struct {
		a, b  uint16
		older bool
	}{
		{1, 2, true},
		{2, 1, false},
		{5, 5, false},
		{65535, 0, true}, // wraparound
		{0, 65535, false},
	}
	for _, c := range cases {
		if got := ansnOlder(c.a, c.b); got != c.older {
			t.Fatalf("ansnOlder(%d,%d) = %v, want %v", c.a, c.b, got, c.older)
		}
	}
}

// startChain builds an n-node OLSR chain and waits for convergence.
func startChain(t *testing.T, n int) (*netem.Network, []*netem.Host, []*Protocol) {
	t.Helper()
	net := netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond})
	t.Cleanup(net.Close)
	hosts, err := netem.Chain(net, n, 90, "10.0.0")
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]*Protocol, n)
	for i, h := range hosts {
		protos[i] = New(h, SimConfig())
		if err := protos[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, p := range protos {
			p.Stop()
		}
	})
	return net, hosts, protos
}

func waitForRoute(t *testing.T, p *Protocol, dst netem.NodeID, timeout time.Duration) netem.NodeID {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if nh, ok := p.NextHop(dst); ok {
			return nh
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no route to %s within %v; table: %+v", dst, timeout, p.Routes())
	return ""
}

func TestProactiveConvergenceOnChain(t *testing.T) {
	_, hosts, protos := startChain(t, 5)
	// End-to-end route appears without any explicit request.
	nh := waitForRoute(t, protos[0], hosts[4].ID(), 10*time.Second)
	if nh != hosts[1].ID() {
		t.Fatalf("NextHop = %v, want %v", nh, hosts[1].ID())
	}
	// Hop counts must be the chain distances.
	for _, e := range protos[0].Routes() {
		switch e.Dst {
		case hosts[1].ID():
			if e.Hops != 1 {
				t.Fatalf("hops to n2 = %d", e.Hops)
			}
		case hosts[4].ID():
			if e.Hops != 4 {
				t.Fatalf("hops to n5 = %d", e.Hops)
			}
		}
	}
}

func TestMPRSelectionOnChain(t *testing.T) {
	_, hosts, protos := startChain(t, 3)
	waitForRoute(t, protos[0], hosts[2].ID(), 10*time.Second)
	// The middle node is the only possible MPR for the endpoints.
	mprs := protos[0].MPRs()
	if len(mprs) != 1 || mprs[0] != hosts[1].ID() {
		t.Fatalf("MPRs of end node = %v, want [%v]", mprs, hosts[1].ID())
	}
	// The middle node needs no MPR: both its 2-hop sets are covered
	// directly.
	if mprs := protos[1].MPRs(); len(mprs) != 0 {
		t.Fatalf("MPRs of middle node = %v, want none", mprs)
	}
}

func TestRequestRouteWaitsForConvergence(t *testing.T) {
	_, hosts, protos := startChain(t, 4)
	// Immediately request before convergence: must still succeed.
	done := make(chan bool, 1)
	protos[0].RequestRoute(hosts[3].ID(), func(ok bool) { done <- ok })
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("RequestRoute failed on a connected topology")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RequestRoute never completed")
	}
}

func TestRequestRouteFailsWhenPartitioned(t *testing.T) {
	net, hosts, protos := startChain(t, 2)
	net.SetLink(hosts[0].ID(), hosts[1].ID(), false)
	done := make(chan bool, 1)
	protos[0].RequestRoute(hosts[1].ID(), func(ok bool) { done <- ok })
	select {
	case ok := <-done:
		if ok {
			t.Fatal("RequestRoute succeeded across a dead link")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RequestRoute never completed")
	}
}

func TestEndToEndDatagramViaOLSR(t *testing.T) {
	_, hosts, protos := startChain(t, 4)
	waitForRoute(t, protos[0], hosts[3].ID(), 10*time.Second)
	cs, err := hosts[0].Listen(100)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := hosts[3].Listen(200)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	defer cd.Close()
	arrived := make(chan *netem.Datagram, 1)
	cd.Handle(func(dg *netem.Datagram) { arrived <- dg.Clone() })
	if err := cs.WriteTo([]byte("olsr-data"), hosts[3].ID(), 200); err != nil {
		t.Fatal(err)
	}
	select {
	case dg := <-arrived:
		if string(dg.Data) != "olsr-data" {
			t.Fatalf("payload = %q", dg.Data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("datagram never arrived")
	}
}

func TestTopologyExpiresAfterNodeDeath(t *testing.T) {
	net, hosts, protos := startChain(t, 3)
	waitForRoute(t, protos[0], hosts[2].ID(), 10*time.Second)
	net.RemoveHost(hosts[2].ID())
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := protos[0].NextHop(hosts[2].ID()); !ok {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("route to dead node never expired")
}

// TestRecomputeCoalescing runs a dense clique where every node hears every
// HELLO/TC: the hold-down coalescing must keep each node's recompute rate
// bounded per interval (instead of one full MPR+route rebuild per arriving
// message) while routes still converge to the 1-hop clique.
func TestRecomputeCoalescing(t *testing.T) {
	fake := clock.NewFake(time.Unix(1_000_000, 0))
	net := netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond, Clock: fake})
	defer net.Close()
	const n = 8
	hosts := make([]*netem.Host, n)
	protos := make([]*Protocol, n)
	for i := range n {
		h, err := net.AddHost(netem.NodeName("c", i+1), netem.Position{X: float64(i) * 5})
		if err != nil {
			t.Fatal(err)
		}
		hosts[i] = h
		protos[i] = New(h, SimConfig())
		if err := protos[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, p := range protos {
			p.Stop()
		}
	}()
	fake.Sleep(2 * time.Second)
	for _, other := range hosts[1:] {
		if nh := routeAt(t, protos[0], other.ID()); nh != other.ID() {
			t.Fatalf("clique route to %s via %s, want direct", other.ID(), nh)
		}
	}
	before := make([]Stats, n)
	for i, p := range protos {
		before[i] = p.Stats()
	}
	fake.Sleep(800 * time.Millisecond)
	// Node 0 hears every control message the others broadcast; without
	// coalescing it would recompute once per arrival.
	var arrivals int64
	for i := 1; i < n; i++ {
		d := protos[i].Stats()
		arrivals += d.HelloSent - before[i].HelloSent
		arrivals += d.TCSent - before[i].TCSent
		arrivals += d.TCFwd - before[i].TCFwd
	}
	rec := protos[0].Stats().Recompute - before[0].Recompute
	if rec*2 > arrivals {
		t.Fatalf("recompute not coalesced: %d recomputes for ~%d control-message arrivals", rec, arrivals)
	}
	// With incremental dirty tracking, a converged clique whose HELLOs
	// re-advertise the same neighbourhood every interval recomputes almost
	// never (stragglers from late convergence are tolerated).
	if rec > 8 {
		t.Fatalf("converged clique still recomputed %d times for ~%d unchanged arrivals", rec, arrivals)
	}
}

func TestGridShortestPaths(t *testing.T) {
	net := netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond})
	defer net.Close()
	hosts, err := netem.Grid(net, 3, 3, 90, "g")
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]*Protocol, len(hosts))
	for i, h := range hosts {
		protos[i] = New(h, SimConfig())
		if err := protos[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, p := range protos {
			p.Stop()
		}
	}()
	// Corner g.1 to opposite corner g.9: shortest path is 4 hops
	// (Manhattan distance on the grid; diagonal spacing 127 > range 100).
	waitForRoute(t, protos[0], "g.9", 15*time.Second)
	for _, e := range protos[0].Routes() {
		if e.Dst == "g.9" && e.Hops != 4 {
			t.Fatalf("hops corner-to-corner = %d, want 4", e.Hops)
		}
	}
}
