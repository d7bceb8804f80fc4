package aodv

import (
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
)

// TestEchoedRREQKeepsNeighbourRoute is the routing loop of a discovery three
// hops out. On the chain R–A–B–D, R floods an RREQ for D; the relay A hears
// the first copy from R, then another frame from R, then B's echo of the same
// RREQ. The echo is a duplicate and must change nothing: A's route to R stays
// the one hop it is, so the RREP and then the data each cross the chain once.
// Hellos are off and the frame from R is injected by hand, so the order is
// exact: everything runs on one shard of a fake clock, one hop a millisecond.
func TestEchoedRREQKeepsNeighbourRoute(t *testing.T) {
	const hop = time.Millisecond
	fake := clock.NewFake(time.Unix(4_000_000, 0))
	net := netem.NewNetwork(netem.Config{Clock: fake, Shards: 1, BaseDelay: hop, BytesPerSecond: -1})
	t.Cleanup(net.Close)
	hosts, err := netem.Chain(net, 4, 90, "10.0.0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{DiscoveryTimeout: time.Second, ActiveRouteTimeout: time.Minute}
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
	req, relay := protos[0], protos[1]
	reqID, dstID := hosts[0].ID(), hosts[3].ID()

	found := make(chan bool, 1)
	req.RequestRoute(dstID, func(ok bool) { found <- ok })
	fake.Sleep(hop) // A has the first copy from R and rebroadcasts it
	if e, ok := relay.table.Lookup(reqID, fake.Now()); !ok || e.Hops != 1 {
		t.Fatalf("relay's route to the requester after the first copy: %+v %t", e, ok)
	}
	// Another frame from R, on the air while A's rebroadcast travels: it
	// reaches A at +2 ms, B's echo of the RREQ at +3 ms.
	hello := Hello{Seq: 1}
	req.send(netem.Broadcast, hello.AppendTo(req.begin(KindHello)))

	var ok bool
	fake.Sleep(20 * hop)
	select {
	case ok = <-found:
		if !ok {
			t.Fatal("discovery failed")
		}
	default:
	}
	if e, live := relay.table.Lookup(reqID, fake.Now()); !live || e.Hops != 1 || e.NextHop != reqID {
		t.Errorf("relay's route to the requester is %+v (live %t), want one hop to it", e, live)
	}
	if !ok {
		t.Fatal("the RREP never reached the requester: it loops between the relays")
	}

	conn, err := hosts[3].Listen(7000)
	if err != nil {
		t.Fatal(err)
	}
	ttl := make(chan uint8, 1)
	conn.Handle(func(dg *netem.Datagram) { ttl <- dg.TTL })
	src, err := hosts[0].Listen(7000)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.WriteTo([]byte("voice"), dstID, 7000); err != nil {
		t.Fatal(err)
	}
	fake.Sleep(20 * hop)
	select {
	case got := <-ttl:
		if want := uint8(netem.DefaultTTL - 2); got != want {
			t.Fatalf("data arrived with TTL %d, want %d: it crossed %d relays, not 2", got, want, netem.DefaultTTL-int(got))
		}
	default:
		t.Fatal("the data never arrived")
	}
}
