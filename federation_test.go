package siphoc_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"siphoc"
	"siphoc/internal/testutil"
)

// TestFederationSmoke is the CI gate for the federation layer: two trunked
// islands behind a sharded provider pool, every client attached, and a small
// cross-island call population established concurrently with two-way voice.
func TestFederationSmoke(t *testing.T) {
	fed, err := siphoc.NewFederationScenario(siphoc.FederationConfig{
		Islands:           2,
		GatewaysPerIsland: 1,
		ClientsPerIsland:  2,
		Shards:            2,
		Trunk:             true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()

	if err := fed.WaitAttached(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	gen := fed.NewCallGenerator(siphoc.CallGenConfig{
		Concurrent:  4,
		VoiceFrames: 10,
	})
	rep, err := gen.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Established != rep.Attempted || rep.Failed != 0 {
		t.Fatalf("calls: %d/%d established, %d failed", rep.Established, rep.Attempted, rep.Failed)
	}
	if rep.PeakConcurrent != rep.Attempted {
		t.Fatalf("peak concurrency %d, want the whole population %d up at once",
			rep.PeakConcurrent, rep.Attempted)
	}
	if rep.SetupP50 <= 0 || rep.SetupP99 < rep.SetupP50 {
		t.Fatalf("setup percentiles out of order: p50=%v p99=%v", rep.SetupP50, rep.SetupP99)
	}
	if rep.MOSMean < 3 {
		t.Fatalf("mean MOS %.2f below toll quality on a clean network (report %+v)", rep.MOSMean, rep)
	}
	if rep.Trunk.PayloadsBatched == 0 || rep.Trunk.FramesRecv == 0 {
		t.Fatalf("gateway trunks never engaged: %+v", rep.Trunk)
	}
	if rep.Trunk.PayloadsDelivered != rep.Trunk.PayloadsBatched {
		t.Fatalf("trunk dropped payloads: %+v", rep.Trunk)
	}
}

// TestCallGeneratorGoroutinesIndependentOfCalls pins that the call generator
// drives every call from the goroutine that runs it: the most goroutines
// alive while it runs, sampled by a fault plan every 10 ms of the
// federation's time, is the same at 4 and at 16 concurrent calls.
func TestCallGeneratorGoroutinesIndependentOfCalls(t *testing.T) {
	const window = 30 * time.Second
	peak := func(calls int) int64 {
		baseline := int64(testutil.StableGoroutines())
		fed, err := siphoc.NewFederationScenario(siphoc.FederationConfig{
			Islands:           2,
			GatewaysPerIsland: 1,
			ClientsPerIsland:  2,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer fed.Close()
		if err := fed.WaitAttached(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		var most atomic.Int64
		fs := siphoc.NewFaultScenario(fed.Island(0), 1)
		for at := time.Duration(0); at < window; at += 10 * time.Millisecond {
			fs.Plan().At(at, "count goroutines", func() {
				n := int64(runtime.NumGoroutine())
				for old := most.Load(); n > old && !most.CompareAndSwap(old, n); old = most.Load() {
				}
			})
		}
		start := fed.Clock().Now()
		if err := fs.Run(); err != nil {
			t.Fatal(err)
		}
		rep, err := fed.NewCallGenerator(siphoc.CallGenConfig{Concurrent: calls, VoiceFrames: 10}).Run()
		fs.Stop()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Established != calls {
			t.Fatalf("%d of %d calls established: %v", rep.Established, calls, rep.FailureReasons)
		}
		if took := fed.Clock().Now().Sub(start); took > window {
			t.Fatalf("the workload ran %v, past the %v sampled", took, window)
		}
		return most.Load() - baseline
	}
	if four, sixteen := peak(4), peak(16); four != sixteen {
		t.Fatalf("peak goroutines above baseline: %d at 4 calls, %d at 16", four, sixteen)
	}
}

// TestFederationOverlayResolution brings up a federation with the P2P
// overlay registrar enabled and checks that cross-island calls resolve
// through the DHT — not the central provider tier: every island proxy
// publishes its registrations into the overlay, and the callers' resolution
// counters show overlay hits with zero typed resolver failures.
func TestFederationOverlayResolution(t *testing.T) {
	fed, err := siphoc.NewFederationScenario(siphoc.FederationConfig{
		Islands:           2,
		GatewaysPerIsland: 1,
		ClientsPerIsland:  2,
		Overlay:           true,
		OverlayNodes:      6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	if len(fed.Overlay()) != 6 {
		t.Fatalf("overlay tier has %d nodes, want 6", len(fed.Overlay()))
	}
	if err := fed.WaitAttached(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	gen := fed.NewCallGenerator(siphoc.CallGenConfig{
		Concurrent:  4,
		VoiceFrames: 10,
	})
	rep, err := gen.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Established != rep.Attempted || rep.Failed != 0 {
		t.Fatalf("calls: %d/%d established, %d failed", rep.Established, rep.Attempted, rep.Failed)
	}

	var overlayRouted, dnsRouted, resolverErrors int64
	for _, sc := range fed.Islands() {
		for _, ps := range sc.Metrics().Proxies {
			overlayRouted += ps.OverlayRouted
			dnsRouted += ps.InternetRouted
			resolverErrors += ps.ResolverErrors
		}
	}
	if overlayRouted == 0 {
		t.Fatal("no call resolved through the overlay registrar")
	}
	if dnsRouted != 0 {
		t.Fatalf("%d calls fell through to the DNS/provider tier with the overlay up", dnsRouted)
	}
	if resolverErrors != 0 {
		t.Fatalf("%d typed resolver failures during a clean run", resolverErrors)
	}
}

// TestFederationShardRebalance drives the registrar tier through a shard
// crash and restart from the scenario level, scheduled on an island's fault
// plan: bindings homed on the dead shard re-home on re-registration, and the
// restarted shard takes its AORs back.
func TestFederationShardRebalance(t *testing.T) {
	fed, err := siphoc.NewFederationScenario(siphoc.FederationConfig{
		Islands:           2,
		GatewaysPerIsland: 1,
		ClientsPerIsland:  1,
		Shards:            3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	if err := fed.WaitAttached(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	pool := fed.Pool()
	clients := fed.Clients()
	phones := make([]*siphoc.Phone, 0, 6)
	for i := range 6 {
		user := []string{"ann", "bob", "cam", "dee", "eli", "fay"}[i]
		pool.AddAccount(user)
		ph, err := clients[i%len(clients)].NewPhone(user, "fed.example")
		if err != nil {
			t.Fatal(err)
		}
		if err := ph.Register(); err != nil {
			t.Fatalf("register %s: %v", user, err)
		}
		phones = append(phones, ph)
	}
	clk := fed.Clock()
	waitBindings := func(want int) {
		deadline := clk.Now().Add(10 * time.Second)
		for clk.Now().Before(deadline) {
			n := 0
			for _, ph := range phones {
				if _, ok := pool.Binding(ph.AOR()); ok {
					n++
				}
			}
			if n >= want {
				return
			}
			clk.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("bindings never reached %d", want)
	}
	waitBindings(len(phones))

	// Find a shard (≠ 0, the DNS front door) owning at least one AOR.
	victim := -1
	for _, ph := range phones {
		if i := pool.Map().OwnerIndex(ph.AOR()); i > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Skip("rendezvous hashing put every test AOR on shard 0")
	}
	moved := make([]*siphoc.Phone, 0, len(phones))
	for _, ph := range phones {
		if pool.Map().OwnerIndex(ph.AOR()) == victim {
			moved = append(moved, ph)
		}
	}

	// Crash the shard via an island fault plan: federation islands compose
	// with the fault harness instead of forking it.
	island := fed.Island(0)
	fs := siphoc.NewFaultScenario(island, 42)
	fs.Plan().At(0, "crash provider shard", func() { pool.CrashShard(victim) })
	if err := fs.Run(); err != nil {
		t.Fatal(err)
	}
	fs.Wait()

	// The dead shard's bindings are gone; everyone else's survive.
	for _, ph := range moved {
		if _, ok := pool.Binding(ph.AOR()); ok {
			t.Fatalf("%s still bound after its shard crashed", ph.AOR())
		}
	}
	// Re-registration re-homes the orphaned AORs on surviving shards.
	for _, ph := range moved {
		if err := ph.Register(); err != nil {
			t.Fatalf("re-register %s: %v", ph.AOR(), err)
		}
	}
	waitBindings(len(phones))
	for _, ph := range moved {
		if got := pool.Map().OwnerIndex(ph.AOR()); got == victim {
			t.Fatalf("%s still owned by the crashed shard %d", ph.AOR(), got)
		}
	}

	// Restart: ownership reverts, and another registration round lands the
	// bindings back on the recovered shard.
	if err := pool.RestartShard(victim); err != nil {
		t.Fatal(err)
	}
	for _, ph := range moved {
		if got := pool.Map().OwnerIndex(ph.AOR()); got != victim {
			t.Fatalf("%s owned by shard %d after restart, want %d", ph.AOR(), got, victim)
		}
		if err := ph.Register(); err != nil {
			t.Fatalf("re-register %s after restart: %v", ph.AOR(), err)
		}
	}
	waitBindings(len(phones))
	for _, ph := range moved {
		if sh := pool.Shard(victim); sh != nil {
			if _, ok := sh.Binding(ph.AOR()); !ok {
				t.Fatalf("%s not bound on the restarted owner shard", ph.AOR())
			}
		}
	}
}
