package aodv

import (
	"testing"
	"time"

	"siphoc/internal/netem"
)

// startChainWithConfig builds an n-node chain with the given AODV config.
func startChainWithConfig(t *testing.T, n int, cfg Config) (*netem.Network, []*netem.Host, []*Protocol) {
	t.Helper()
	net := netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond})
	t.Cleanup(net.Close)
	hosts, err := netem.Chain(net, n, 90, "10.0.0")
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]*Protocol, n)
	for i, h := range hosts {
		protos[i] = New(h, cfg)
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

func noHelloConfig(ring bool) Config {
	// Hellos off so RREQ forwarding counts are exactly the flood size.
	c := Config{
		DiscoveryTimeout:   200 * time.Millisecond,
		ActiveRouteTimeout: 10 * time.Second,
		ExpandingRing:      ring,
	}.withDefaults()
	c.EnableHello = false
	return c
}

func discoverOK(t *testing.T, p *Protocol, dst netem.NodeID) {
	t.Helper()
	done := make(chan bool, 1)
	p.RequestRoute(dst, func(ok bool) { done <- ok })
	select {
	case ok := <-done:
		if !ok {
			t.Fatalf("discovery to %s failed", dst)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("discovery timed out")
	}
}

func totalRREQFwd(protos []*Protocol) int64 {
	var sum int64
	for _, p := range protos {
		sum += p.Stats().RREQFwd
	}
	return sum
}

// startGridWithConfig builds a rows×cols grid with the given AODV config.
func startGridWithConfig(t *testing.T, rows, cols int, cfg Config) ([]*netem.Host, []*Protocol) {
	t.Helper()
	net := netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond})
	t.Cleanup(net.Close)
	hosts, err := netem.Grid(net, rows, cols, 80, "g")
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]*Protocol, len(hosts))
	for i, h := range hosts {
		protos[i] = New(h, cfg)
		if err := protos[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, p := range protos {
			p.Stop()
		}
	})
	return hosts, protos
}

// TestExpandingRingLimitsFlood is the ablation behind the ✦ design choice:
// for a nearby destination the first ring must cover it, keeping the rest
// of the network out of the flood. A chain would hide the effect (the flood
// always dies at the destination there), so a 4×4 grid is used: the RREQ
// for a corner's 2-hop neighbour floods the whole grid without the ring.
func TestExpandingRingLimitsFlood(t *testing.T) {
	hostsFull, protosFull := startGridWithConfig(t, 4, 4, noHelloConfig(false))
	discoverOK(t, protosFull[0], hostsFull[2].ID()) // g.1 -> g.3, 2 hops
	time.Sleep(100 * time.Millisecond)              // let the flood finish propagating
	fullFwd := totalRREQFwd(protosFull)

	hostsRing, protosRing := startGridWithConfig(t, 4, 4, noHelloConfig(true))
	discoverOK(t, protosRing[0], hostsRing[2].ID())
	time.Sleep(100 * time.Millisecond)
	ringFwd := totalRREQFwd(protosRing)

	if ringFwd >= fullFwd {
		t.Fatalf("expanding ring did not shrink the flood: ring=%d full=%d", ringFwd, fullFwd)
	}
	if fullFwd < 5 {
		t.Fatalf("full flood suspiciously small: %d forwards", fullFwd)
	}
}

// TestExpandingRingEscalatesToFarDestination verifies the ring widens until
// it reaches a destination beyond the probe TTLs.
func TestExpandingRingEscalatesToFarDestination(t *testing.T) {
	_, hosts, protos := startChainWithConfig(t, 8, noHelloConfig(true))
	src, dst := protos[0], hosts[7].ID() // 7 hops: beyond both rings
	discoverOK(t, src, dst)
	if _, ok := src.NextHop(dst); !ok {
		t.Fatal("route missing after escalated discovery")
	}
	// Multiple RREQ attempts were needed (2-ring, 5-ring, then full).
	if s := src.Stats(); s.RREQSent < 3 {
		t.Fatalf("RREQSent = %d, want >= 3 (ring escalation)", s.RREQSent)
	}
}

func TestAttemptPlanShape(t *testing.T) {
	cfg := noHelloConfig(true).withDefaults()
	plan := cfg.attemptPlan()
	// 2 rings + (1 + 2 retries) full floods.
	if len(plan) != 5 {
		t.Fatalf("plan = %+v", plan)
	}
	if plan[0].ttl != 2 || plan[1].ttl != 5 {
		t.Fatalf("ring ttls = %d, %d", plan[0].ttl, plan[1].ttl)
	}
	for _, a := range plan[2:] {
		if a.ttl != netDiameter {
			t.Fatalf("full flood ttl = %d", a.ttl)
		}
	}
	if plan[0].timeout >= plan[2].timeout {
		t.Fatalf("ring timeout %v not shorter than full %v", plan[0].timeout, plan[2].timeout)
	}
	// Without the ring: only full floods.
	cfg = noHelloConfig(false).withDefaults()
	if plan2 := cfg.attemptPlan(); len(plan2) != 3 || plan2[0].ttl != netDiameter {
		t.Fatalf("no-ring plan = %+v", plan2)
	}
}
