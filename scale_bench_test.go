// Control-plane scale study: the paper defers "how does the system behave as
// the number of nodes grows" (§6); BenchmarkControlScale answers it on square
// OLSR grids from 25 to 400 nodes, measuring bring-up time, corner-to-corner
// convergence time, steady-state recomputes per node, and steady-state
// allocation rate. Run via `make bench` (-benchtime 1x), committed as
// BENCH_scale.json.
package siphoc_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"siphoc"
	"siphoc/internal/netem"
	"siphoc/internal/routing/olsr"
	"siphoc/internal/testutil"
)

// controlScaleOLSR returns OLSR timing scaled to the node count. The TC flood
// volume grows O(N²) with the node count at fixed intervals, so a fixed
// 40 ms HELLO beat saturates the machine long before 400 nodes — timers then
// slip past the hold times and links flap, which is genuine protocol
// behaviour under CPU starvation, not measurement noise. Real deployments
// tune intervals to network size (RFC 3626 defaults to 2 s HELLO / 5 s TC);
// this scales linearly between the simulation beat and the RFC one.
func controlScaleOLSR(nodes int) olsr.Config {
	hello := time.Duration(nodes) * 2500 * time.Microsecond
	if hello < 40*time.Millisecond {
		hello = 40 * time.Millisecond
	}
	// A 20×20 grid has a 38-hop diameter and a 32×32 one 62; the default
	// MaxTTL 32 would truncate corner-to-corner TC flooding.
	ttl := uint8(64)
	if nodes > 20*20 {
		ttl = 96
	}
	// Fisheye scoping scaled to the grid: a full-TTL flood costs O(N)
	// forwards, so the sustainable far rate shrinks as the grid grows.
	// Every 4th round at near-TTL 8 is fine to 400 nodes; at 1024 the far
	// floods are stretched to every 8th round and the near zone shrinks to
	// TTL 4 — worst-case convergence is one far period (the per-node phase
	// stagger spreads the floods evenly across rounds), and the near-zone
	// cut funds that cadence inside one core's forwarding budget. (Every
	// 6th round was tried and is worse: the extra full floods sit past the
	// core's saturation edge, and the backlog they build delays convergence
	// more than the faster far cadence gains.)
	far, near := 4, uint8(8)
	// NeighborHold defaults to 3×HELLO: a node may miss two beats before
	// its links drop. During 1024-node bring-up the flood backlog delays
	// HELLO timers by more than that, and once links expire the network
	// melts down (selectors empty, TC emission stops, every reformation
	// triggers a recompute that deepens the backlog). Five beats of slack
	// rides out the transient; link-death detection slows accordingly,
	// which a static scale study never notices.
	hold := time.Duration(0) // 0 = default 3×HELLO
	if nodes > 20*20 {
		far, near = 8, 4
		hold = 5 * hello
	}
	return olsr.Config{
		HelloInterval:   hello,
		TCInterval:      hello * 5 / 2,
		NeighborHold:    hold,
		MaxTTL:          ttl,
		RouteWait:       2 * time.Minute,
		Fisheye:         true,
		FisheyeNearTTL:  near,
		FisheyeFarEvery: far,
	}
}

// controlScaleScenario builds the scale-study deployment.
func controlScaleScenario(side int) (*siphoc.Scenario, error) {
	cfg := controlScaleOLSR(side * side)
	return siphoc.NewScenarioWith(
		siphoc.WithOLSR(&cfg),
		siphoc.WithoutObservability(),
	)
}

// waitNextHop polls until the protocol has a route to dst.
func waitNextHop(p *olsr.Protocol, dst netem.NodeID, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if _, ok := p.NextHop(dst); ok {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("no route to %s within %v", dst, timeout)
}

// sumRecomputes totals executed route rebuilds across the grid.
func sumRecomputes(nodes []*siphoc.Node) int64 {
	var n int64
	for _, nd := range nodes {
		n += nd.Routing().(*olsr.Protocol).Stats().Recompute
	}
	return n
}

func BenchmarkControlScale(b *testing.B) {
	sides := []int{5, 10, 15, 20, 32}
	if testing.Short() {
		sides = []int{5, 10}
	}
	for _, side := range sides {
		b.Run(fmt.Sprintf("grid_%dx%d", side, side), func(b *testing.B) {
			for b.Loop() {
				runControlScalePoint(b, side)
			}
		})
	}
}

func runControlScalePoint(b *testing.B, side int) {
	sc, err := controlScaleScenario(side)
	if err != nil {
		b.Fatal(err)
	}
	defer sc.Close()

	// GC pressure is measured across the whole point (bring-up +
	// convergence + steady window): that is where the routing core's
	// allocation shape shows up as collector work.
	var msStart runtime.MemStats
	runtime.ReadMemStats(&msStart)

	t0 := time.Now()
	nodes, err := sc.Grid(side, side, 80, siphoc.WithoutConnectionProvider())
	if err != nil {
		b.Fatal(err)
	}
	bringup := time.Since(t0)

	// Convergence: both far corners can route to each other, i.e. topology
	// information crossed the full grid diameter in both directions.
	first := nodes[0].Routing().(*olsr.Protocol)
	last := nodes[len(nodes)-1].Routing().(*olsr.Protocol)
	t1 := time.Now()
	if err := waitNextHop(first, nodes[len(nodes)-1].ID(), 4*time.Minute); err != nil {
		b.Fatal(err)
	}
	if err := waitNextHop(last, nodes[0].ID(), 4*time.Minute); err != nil {
		b.Fatal(err)
	}
	convergence := time.Since(t1)

	// Steady state: drain a full fisheye far period plus slack before
	// measuring. Corner-to-corner routes come up well before every node has
	// heard every origin's staggered full-TTL flood, and each late far
	// flood still delivers first-seen topology — genuine changes, not
	// steady state. Only after one far period is every arrival a pure
	// refresh and recomputes track topology changes (≈0), not messages.
	cfg := controlScaleOLSR(side * side)
	tc := cfg.TCInterval
	drain := 2 * tc
	if cfg.Fisheye {
		drain += time.Duration(cfg.FisheyeFarEvery) * tc
	}
	time.Sleep(drain)
	window := 2 * tc
	recBefore := sumRecomputes(nodes)
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	time.Sleep(window)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	rec := sumRecomputes(nodes) - recBefore
	allocs := float64(msAfter.Mallocs - msBefore.Mallocs)

	n := float64(side * side)
	b.ReportMetric(float64(bringup.Milliseconds()), "bringup_ms")
	b.ReportMetric(float64(convergence.Milliseconds()), "convergence_ms")
	b.ReportMetric(float64(rec)/n, "recomputes/node")
	b.ReportMetric(allocs/n/window.Seconds(), "allocs/node/s")
	// Memory-pressure telemetry for BENCH_scale.json: live heap at the end
	// of the steady window, plus collector cycles and stop-the-world pause
	// accumulated over the whole point. These are what regress first when
	// routing state grows GC-visible pointers or per-rebuild minting creeps
	// back in — cmd/benchcmp guards them alongside convergence_ms.
	b.ReportMetric(float64(msAfter.HeapAlloc)/(1<<20), "heap_alloc_mb")
	b.ReportMetric(float64(msAfter.NumGC-msStart.NumGC), "gc_cycles")
	b.ReportMetric(float64(msAfter.PauseTotalNs-msStart.PauseTotalNs)/1e6, "gc_pause_ms")
}

// TestControlScaleSmoke is the `make check` scale gate, now at the size
// that killed the goroutine core: a 32×32 (1024-node) OLSR grid on the
// event-loop core must bring up, converge corner to corner,
// keep the post-bring-up goroutine count O(shards) — not O(N) — and hold
// the incremental-recompute bound (steady-state rebuilds stay O(topology
// changes), not O(control messages)).
//
// Under -short or -race the grid shrinks to the pre-event-loop gate size
// (10×10 at the seed's relaxed cadence): the race detector multiplies CPU
// cost several-fold, and a 1024-node control plane saturates a small
// machine already without it — timers would slip past hold times and the
// links would genuinely flap, failing the test for reasons that are about
// the host, not the code. The small variant still runs the identical
// event-loop core and assertions.
func TestControlScaleSmoke(t *testing.T) {
	side := 32
	cfg := controlScaleOLSR(side * side)
	if testing.Short() || testutil.Race {
		side = 10
		cfg = controlScaleOLSR(side * side)
		cfg.HelloInterval = 500 * time.Millisecond
		cfg.TCInterval = 1250 * time.Millisecond
	}
	baseline := runtime.NumGoroutine()
	sc, err := siphoc.NewScenarioWith(
		siphoc.WithOLSR(&cfg),
		siphoc.WithoutObservability(),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	nodes, err := sc.Grid(side, side, 80, siphoc.WithoutConnectionProvider())
	if err != nil {
		t.Fatal(err)
	}

	// The execution core's resource claim: 1024 nodes must not cost 1024×k
	// goroutines. The budget covers the delivery shards, the scheduler
	// workers and a little transient slack — a goroutine per timer would
	// make this number ~7000.
	if g := runtime.NumGoroutine(); g > baseline+64 {
		t.Errorf("post-bring-up goroutines = %d (baseline %d) for %d nodes; want O(shards)",
			g, baseline, len(nodes))
	}

	first := nodes[0].Routing().(*olsr.Protocol)
	last := nodes[len(nodes)-1].Routing().(*olsr.Protocol)
	if err := waitNextHop(first, nodes[len(nodes)-1].ID(), 4*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := waitNextHop(last, nodes[0].ID(), 4*time.Minute); err != nil {
		t.Fatal(err)
	}

	// Drain trailing rebuilds — including one full fisheye far period, so
	// late staggered full-TTL floods finish delivering first-seen topology
	// — then require near-zero recomputes over a measurement window on the
	// static converged grid.
	tc := cfg.TCInterval
	drain := 2 * tc
	if cfg.Fisheye {
		drain += time.Duration(cfg.FisheyeFarEvery) * tc
	}
	time.Sleep(drain)
	before := sumRecomputes(nodes)
	window := 2 * tc
	time.Sleep(window)
	rec := sumRecomputes(nodes) - before
	if max := int64(3 * len(nodes)); rec > max {
		t.Fatalf("steady-state recomputes = %d over %v for %d nodes (want ≤ %d): O(messages), not O(changes)",
			rec, window, len(nodes), max)
	}
}
