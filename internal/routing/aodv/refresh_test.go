package aodv

import (
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
)

// TestUsedRouteIsRefreshed: a route in use does not expire (RFC 3561 §6.2).
// One frame each way every 100 ms over a 3-hop chain for three times
// ActiveRouteTimeout keeps the path alive on the first discovery; a table
// that refreshed nothing would rediscover every ActiveRouteTimeout.
func TestUsedRouteIsRefreshed(t *testing.T) {
	fake := clock.NewFake(time.Unix(5_000_000, 0))
	net := netem.NewNetwork(netem.Config{Clock: fake, Shards: 1})
	t.Cleanup(net.Close)
	hosts, err := netem.Chain(net, 4, 90, "10.0.0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimConfig()
	protos := make([]*Protocol, len(hosts))
	for i, h := range hosts {
		protos[i] = New(h, cfg)
		if err := protos[i].Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(protos[i].Stop)
	}
	src, dst := hosts[0], hosts[3]
	out, err := src.Listen(7000)
	if err != nil {
		t.Fatal(err)
	}
	back, err := dst.Listen(7000)
	if err != nil {
		t.Fatal(err)
	}
	var got [2]int
	out.Handle(func(*netem.Datagram) { got[0]++ })
	back.Handle(func(*netem.Datagram) { got[1]++ })

	const gap = 100 * time.Millisecond
	frames := int(3 * cfg.ActiveRouteTimeout / gap)
	for range frames {
		if err := out.WriteTo([]byte("voice"), dst.ID(), 7000); err != nil {
			t.Fatal(err)
		}
		fake.Sleep(gap / 2)
		if err := back.WriteTo([]byte("voice"), src.ID(), 7000); err != nil {
			t.Fatal(err)
		}
		fake.Sleep(gap / 2)
	}
	if n := protos[0].Stats().Discovered; n != 1 {
		t.Errorf("the source originated %d discoveries over %v of steady traffic, want 1", n, 3*cfg.ActiveRouteTimeout)
	}
	if n := protos[3].Stats().Discovered; n != 0 {
		t.Errorf("the destination originated %d discoveries, want 0", n)
	}
	if got != [2]int{frames, frames} {
		t.Errorf("delivered %v of %d frames each way", got, frames)
	}
}
