package picosip

import (
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
)

func simConfig() Config {
	return Config{HelloInterval: 40 * time.Millisecond}
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
	hosts, err := netem.Chain(net, n, 90, "p")
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

func TestMappingGossipsAcrossChain(t *testing.T) {
	c := buildChain(t, 4)
	c.agents[0].Register("alice@x", "p.1:5060")
	c.fake.Sleep(5 * time.Second)
	addr, ok := c.agents[3].Lookup("alice@x")
	if !ok {
		t.Fatal("mapping never gossiped to the far node")
	}
	if addr != "p.1:5060" {
		t.Fatalf("addr = %q", addr)
	}
}

func TestEveryNodeCarriesFullTable(t *testing.T) {
	c := buildChain(t, 4)
	for i, a := range c.agents {
		a.Register("user"+string(rune('a'+i))+"@x", "p:1")
	}
	full := func() bool {
		for _, a := range c.agents {
			if a.TableSize() < len(c.agents)-1 {
				return false
			}
		}
		return true
	}
	c.fake.Sleep(5 * time.Second)
	if !full() {
		t.Fatal("not every node learned every mapping")
	}
}

func TestStandingOverheadWithoutCalls(t *testing.T) {
	c := buildChain(t, 3)
	c.agents[0].Register("alice@x", "p.1:5060")
	c.net.ResetStats()
	c.fake.Sleep(300 * time.Millisecond)
	st := c.net.Stats()
	// Pro-active HELLOs keep flowing even though nobody ever looks
	// anything up — the resource waste the paper criticizes.
	if st.ServiceFrames < 10 {
		t.Fatalf("expected standing HELLO traffic, got %d frames", st.ServiceFrames)
	}
}

func TestMappingExpires(t *testing.T) {
	c := buildChain(t, 2)
	c.agents[0].Register("alice@x", "p.1:5060")
	known := func() bool { _, ok := c.agents[1].Lookup("alice@x"); return ok }
	c.fake.Sleep(5 * time.Second)
	if !known() {
		t.Fatal("mapping never reached the neighbour")
	}
	c.net.SetLink("p.1", "p.2", false)
	c.fake.Sleep(5 * time.Second)
	if known() {
		t.Fatal("mapping never expired after partition")
	}
}
