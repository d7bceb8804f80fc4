package aodv

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/routing"
)

// TestSeenRREQsForgottenAfterHold: the duplicate set holds a key for
// 2×DiscoveryTimeout×(1+rreqRetries). A copy heard inside that hold is
// dropped; once it has passed the HELLO beat forgets a whole burst and hands
// back its map and queue, and the same RREQ heard again is handled as new.
func TestSeenRREQsForgottenAfterHold(t *testing.T) {
	fake := clock.NewFake(time.Unix(6_000_000, 0))
	net := netem.NewNetwork(netem.Config{Clock: fake, Shards: 1})
	t.Cleanup(net.Close)
	h, err := net.AddHost("x", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimConfig()
	p := New(h, cfg)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)
	hold := 2 * cfg.DiscoveryTimeout * time.Duration(1+rreqRetries)
	rreq := func(id uint32) *RREQ {
		return &RREQ{ID: id, TTL: 8, Orig: "o", OrigSeq: 1, Dst: "z", UnknownSeq: true}
	}
	forwarded := func() int64 { return p.Stats().RREQFwd }

	const burst = 100
	for id := range uint32(burst) {
		p.onRREQ("o", rreq(id))
	}
	if n := forwarded(); n != burst {
		t.Fatalf("forwarded %d of %d distinct RREQs", n, burst)
	}
	fake.Sleep(hold - cfg.HelloInterval)
	p.onRREQ("o", rreq(0))
	if n := forwarded(); n != burst {
		t.Fatalf("a copy inside the hold was forwarded (%d forwards)", n)
	}

	fake.Sleep(2 * cfg.HelloInterval)
	p.mu.Lock()
	empty := p.seen == nil && reflect.DeepEqual(p.seenQ, clock.ExpiryQueue[seenKey]{})
	held, queued := len(p.seen), p.seenQ.Len()
	p.mu.Unlock()
	if !empty {
		t.Fatalf("after the hold the duplicate set holds %d keys, %d queued; want its storage given back", held, queued)
	}
	p.onRREQ("o", rreq(0))
	if n := forwarded(); n != burst+1 {
		t.Fatalf("the RREQ heard again after its hold was not handled as new (%d forwards)", n)
	}
}

// TestLostNeighboursRERRInIDOrder: when one HELLO beat finds several
// neighbours gone, their RERRs go out in neighbour-ID order, whatever order
// the neighbour map is walked in, so every run of a seed sends the same
// frames.
func TestLostNeighboursRERRInIDOrder(t *testing.T) {
	orders := make(map[string]int)
	for range 20 {
		orders[lostNeighbourRERRs(t)]++
	}
	if len(orders) != 1 || orders["[a b]"] != 20 {
		t.Fatalf("RERR orders over 20 runs: %v, want [a b] every time", orders)
	}
}

// lostNeighbourRERRs builds the star a–x–b on one shard of a fake clock,
// removes a and b at once, and returns the destinations of the RERRs x sends.
func lostNeighbourRERRs(t *testing.T) string {
	fake := clock.NewFake(time.Unix(6_000_000, 0))
	net := netem.NewNetwork(netem.Config{Clock: fake, Shards: 1})
	defer net.Close()
	cfg := SimConfig()
	for _, node := range []struct {
		id netem.NodeID
		x  float64
	}{{"x", 0}, {"a", -90}, {"b", 90}} {
		h, err := net.AddHost(node.id, netem.Position{X: node.x})
		if err != nil {
			t.Fatal(err)
		}
		p := New(h, cfg)
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		defer p.Stop()
	}
	fake.Sleep(3 * cfg.HelloInterval) // x has a route to each neighbour

	var lost []netem.NodeID
	net.SetTap(func(f netem.Frame) {
		var env routing.Envelope
		if f.Src != "x" || routing.ParseEnvelopeInto(&env, f.Payload) != nil || env.Kind != KindRERR {
			return
		}
		if m, err := ParseRERR(env.Body); err == nil {
			for _, u := range m.Unreachable {
				lost = append(lost, u.Dst)
			}
		}
	})
	net.RemoveHost("a")
	net.RemoveHost("b")
	fake.Sleep(time.Duration(cfg.AllowedHelloLoss+2) * cfg.HelloInterval)
	return fmt.Sprint(lost)
}

// TestFirstHelloAtStart: a node's first HELLO goes out in Start, not one
// HelloInterval later, and the beat keeps its period from there; a neighbour
// has the node as a one-hop route as soon as that HELLO has crossed the air.
func TestFirstHelloAtStart(t *testing.T) {
	fake := clock.NewFake(time.Unix(7_000_000, 0))
	net := netem.NewNetwork(netem.Config{Clock: fake, Shards: 1})
	t.Cleanup(net.Close)
	cfg := SimConfig()
	protos := make(map[netem.NodeID]*Protocol)
	for i, id := range []netem.NodeID{"y", "x"} {
		h, err := net.AddHost(id, netem.Position{X: float64(50 * i)})
		if err != nil {
			t.Fatal(err)
		}
		protos[id] = New(h, cfg)
	}
	if err := protos["y"].Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(protos["y"].Stop)
	fake.Sleep(cfg.HelloInterval / 2)

	var hellos []time.Duration // x's, from its Start
	start := fake.Now()
	net.SetTap(func(f netem.Frame) {
		var env routing.Envelope
		if f.Src == "x" && routing.ParseEnvelopeInto(&env, f.Payload) == nil && env.Kind == KindHello {
			hellos = append(hellos, fake.Now().Sub(start))
		}
	})
	if err := protos["x"].Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(protos["x"].Stop)
	if want := []time.Duration{0}; !reflect.DeepEqual(hellos, want) {
		t.Fatalf("x's HELLOs when Start returns: %v, want %v", hellos, want)
	}
	fake.Sleep(time.Millisecond)
	if _, ok := protos["y"].NextHop("x"); !ok {
		t.Fatal("y has no route to x 1ms after x's Start")
	}
	fake.Sleep(2*cfg.HelloInterval - time.Millisecond)
	if want := []time.Duration{0, cfg.HelloInterval, 2 * cfg.HelloInterval}; !reflect.DeepEqual(hellos, want) {
		t.Fatalf("x's HELLOs over two intervals: %v, want %v", hellos, want)
	}
}
