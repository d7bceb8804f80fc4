package core

// Allocation pins for the connectivity plane at rest: an idle node's gateway
// poll and an attached node's tunnel, each run on a fake clock, with
// testing.AllocsPerRun counting what every goroutine allocates — the shard
// workers that do the work included.

import (
	"sync/atomic"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/slp"
	"siphoc/internal/testutil"
)

// skipAllocCount ends a pin under the race detector once the path has run:
// there the instrumentation allocates and sync.Pool drops a quarter of what it
// is given, so a count is not the program's own.
func skipAllocCount(t *testing.T) {
	if testutil.Race {
		t.Skip("allocation counts are not meaningful under -race")
	}
}

// TestIdleProbeRoundAllocFree pins the poll of a node with no gateway in
// reach — the paper's isolated MANET, where every node does this forever — at
// no allocation per round, be it one that only reads the cache or one that
// asks the network: the probe, the wildcard SLP lookup, the lookup's deadline,
// the miss and the next round's arming. The wildcard lookups follow
// queryRound's schedule exactly.
func TestIdleProbeRoundAllocFree(t *testing.T) {
	fake := clock.NewFake(time.Unix(9_000_000, 0))
	net := netem.NewNetwork(netem.Config{Clock: fake, Shards: 1})
	defer net.Close()
	h, err := net.AddHost("10.9.0.1", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	agent := slp.NewAgent(h, slp.Config{AdvertTTL: time.Hour})
	if err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	defer agent.Stop()
	cfg := ConnProviderConfig{ProbeInterval: 250 * time.Millisecond, LookupTimeout: 200 * time.Millisecond}
	start := fake.Now()
	cp := NewConnectionProvider(h, agent, cfg)
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	defer cp.Stop()

	// No round starts on the 1 ms offset the test sleeps to.
	fake.Sleep(3*time.Second + time.Millisecond) // free lists filled, ErrNoGateway raised
	from := fake.Now().Sub(start)
	lookups := agent.Stats().Lookups
	const runs = 100
	step := func() { fake.Sleep(cfg.ProbeInterval) }
	if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
		t.Errorf("%v allocations per idle probe round, want 0", allocs)
	}
	to := fake.Now().Sub(start)
	want := scheduledQueries(cfg, to) - scheduledQueries(cfg, from)
	if got := agent.Stats().Lookups - lookups; got != want || want == 0 {
		t.Errorf("%d wildcard lookups in %v of idle rounds, want %d (nonzero)", got, to-from, want)
	}
	if cp.Attached() || cp.LastError() == nil {
		t.Errorf("attached = %v, LastError = %v: the provider is not polling in vain", cp.Attached(), cp.LastError())
	}
}

// tunnelBed is lifecycleBed with a client attached to a gateway.
func tunnelBed(t *testing.T) (*lifecycleBed, *ConnectionProvider, *GatewayProvider) {
	b := newLifecycleBed(t)
	gw := b.gateway(lcGW1)
	cp := b.provider(b.config())
	if err := cp.WaitAttached(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cp.Stop()
		gw.Stop()
		b.drained()
	})
	return b, cp, gw
}

// TestTunnelPingAllocFree pins an attached node's keep-alive — the PING, the
// gateway's PONG, the next round's arming — at no allocation, at either end.
func TestTunnelPingAllocFree(t *testing.T) {
	b, cp, gw := tunnelBed(t)
	ping := func() { b.fake.Sleep(b.config().ProbeInterval) }
	ping()
	skipAllocCount(t)
	if allocs := testing.AllocsPerRun(100, ping); allocs != 0 {
		t.Errorf("%v allocations per PING and PONG, want 0", allocs)
	}
	if st := cp.Stats(); !cp.Attached() || st.Detaches != 0 || len(gw.Clients()) != 1 {
		t.Errorf("after the pings: attached = %v, stats %+v, gateway clients %v", cp.Attached(), st, gw.Clients())
	}
}

// TestTunnelDatagramAllocFree pins a datagram's round trip through the tunnel
// at no allocation: Conn.WriteTo to an Internet host, which has no MANET route
// and so is offered to the Connection Provider, encapsulated, decapsulated at
// the gateway and sent on by the client's Internet presence; the echo comes
// back into the gateway's sink, through the tunnel again, and is injected into
// the client's stack, which hands it to the port that sent the first.
func TestTunnelDatagramAllocFree(t *testing.T) {
	b, cp, gw := tunnelBed(t)
	echo, err := b.probe.Listen(7)
	if err != nil {
		t.Fatal(err)
	}
	defer echo.Close()
	echo.Handle(func(dg *netem.Datagram) { _ = echo.WriteTo(dg.Data, dg.SrcNode, dg.SrcPort) })
	local, err := b.hosts[lcClient].Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	var echoed atomic.Int64
	local.Handle(func(dg *netem.Datagram) {
		if dg.SrcNode == b.probe.ID() && len(dg.Data) == 172 {
			echoed.Add(1)
		}
	})
	data := make([]byte, 172)
	roundTrip := func() {
		want := echoed.Load() + 1
		if err := local.WriteTo(data, b.probe.ID(), 7); err != nil {
			t.Fatal(err)
		}
		b.fake.Sleep(10 * time.Millisecond)
		if echoed.Load() != want {
			t.Fatal("the echo did not come back within 10 ms")
		}
	}
	roundTrip()
	skipAllocCount(t)
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Errorf("%v allocations per tunnelled round trip, want 0", allocs)
	}
	if st, gst := cp.Stats(), gw.Stats(); st.FramesOut < 101 || st.FramesIn < 101 || gst.FramesIn < 101 || gst.FramesOut < 101 {
		t.Errorf("tunnel counters: provider %+v, gateway %+v", st, gst)
	}
}
