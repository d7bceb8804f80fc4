package floodreg

import (
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
)

func simConfig() Config {
	return Config{Interval: 50 * time.Millisecond}
}

// chain is an n-node line of agents on a fake clock: the agents take it
// from their hosts, and the tests sleep on it.
type chain struct {
	net    *netem.Network
	fake   *clock.Fake
	agents []*Agent
}

func buildChain(t *testing.T, n int) *chain {
	t.Helper()
	fake := clock.NewFake(time.Unix(7_000_000, 0))
	net := netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond, Clock: fake})
	t.Cleanup(net.Close)
	hosts, err := netem.Chain(net, n, 90, "f")
	if err != nil {
		t.Fatal(err)
	}
	agents := make([]*Agent, n)
	for i, h := range hosts {
		agents[i] = New(h, simConfig())
		if err := agents[i].Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(agents[i].Stop)
	}
	return &chain{net: net, fake: fake, agents: agents}
}

func TestFloodPropagatesBindings(t *testing.T) {
	c := buildChain(t, 5)
	c.agents[0].Register("alice@voicehoc.ch", "f.1:5060")
	c.fake.Sleep(5 * time.Second)
	addr, ok := c.agents[4].Lookup("alice@voicehoc.ch")
	if !ok {
		t.Fatal("binding never reached the far node")
	}
	if addr != "f.1:5060" {
		t.Fatalf("addr = %q", addr)
	}
}

func TestLookupMissAndLocalHit(t *testing.T) {
	c := buildChain(t, 2)
	if _, ok := c.agents[0].Lookup("ghost@x"); ok {
		t.Fatal("lookup hit for unknown AOR")
	}
	c.agents[0].Register("me@x", "f.1:5060")
	if addr, ok := c.agents[0].Lookup("me@x"); !ok || addr != "f.1:5060" {
		t.Fatalf("local lookup = %q %v", addr, ok)
	}
}

func TestBindingExpires(t *testing.T) {
	c := buildChain(t, 2)
	c.agents[0].Register("alice@x", "f.1:5060")
	known := func() bool { _, ok := c.agents[1].Lookup("alice@x"); return ok }
	c.fake.Sleep(5 * time.Second)
	if !known() {
		t.Fatal("binding never reached the neighbour")
	}
	// Partition the nodes; refreshes stop arriving and the binding ages out.
	c.net.SetLink("f.1", "f.2", false)
	c.fake.Sleep(5 * time.Second)
	if known() {
		t.Fatal("binding never expired after partition")
	}
}

func TestOverheadScalesWithTime(t *testing.T) {
	c := buildChain(t, 3)
	c.agents[0].Register("alice@x", "f.1:5060")
	c.net.ResetStats()
	c.fake.Sleep(300 * time.Millisecond)
	early := c.net.Stats().ServiceFrames
	c.fake.Sleep(300 * time.Millisecond)
	late := c.net.Stats().ServiceFrames
	// Flooding never stops — the inefficiency the paper calls out.
	if late <= early {
		t.Fatalf("flood traffic stalled: %d then %d", early, late)
	}
}
