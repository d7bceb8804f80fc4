// Control-plane scale study: the paper defers "how does the system behave as
// the number of nodes grows" (§6); BenchmarkControlScale answers it on square
// OLSR grids from 25 to 1 024 nodes, every one at the same protocol timing and
// in virtual time, on a one-shard clock.Fake. Each point reports protocol
// numbers, exact for a seed: corner-to-corner convergence time, TC forwards to
// convergence, and TC forwards, routing bytes and recomputes per node at rest.
// Beside them it reports the heap and GC cost of the run and one simulator
// property, scheduler events per wall second. Run via `make bench`
// (-benchtime 1x), committed as BENCH_scale.json.
package siphoc_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"siphoc"
	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/routing/olsr"
	"siphoc/internal/testutil"
)

// controlScaleOLSR is the one OLSR timing every scale point runs. The values
// match bench/workload.go's benchOLSR, the grid_olsr workload's timing.
// MaxTTL 64 covers the 32×32 grid's 62-hop diameter.
func controlScaleOLSR() olsr.Config {
	return olsr.Config{
		HelloInterval:   200 * time.Millisecond,
		TCInterval:      500 * time.Millisecond,
		MaxTTL:          64,
		RouteWait:       2 * time.Minute,
		Fisheye:         true,
		FisheyeNearTTL:  8,
		FisheyeFarEvery: 4,
	}
}

// scaleSim is what a scale point measures in virtual time: the same on every
// run of a seed.
type scaleSim struct {
	convergence time.Duration // bring-up to the later corner's route
	tcFwdConv   int64         // TC forwards over the grid to convergence
	// Over the window at rest, summed over the grid.
	tcFwdRest, routingBytesRest, recomputesRest int64
}

// scalePoint is one run of a scale point.
type scalePoint struct {
	sim        scaleSim
	nodes      int
	window     time.Duration // the rest window, virtual
	goroutines int           // after bring-up, over the count before the scenario
	allocsRest uint64        // heap allocations over the rest window
	// The heap at the end of the window, and the collector's work over the
	// whole point.
	heapAlloc        uint64
	gcCycles         uint32
	gcPause          time.Duration
	eventsPerWallSec float64 // scheduler task runs over the point's wall time
}

// runControlScale builds a side×side grid on a fake clock, waits for its
// corners to route to each other, drains the bring-up and measures a window
// at rest.
func runControlScale(tb testing.TB, side int) scalePoint {
	tb.Helper()
	baseline := runtime.NumGoroutine()
	fake := clock.NewFake(time.Unix(1_000_000, 0))
	cfg := controlScaleOLSR()
	sc, err := siphoc.NewScenarioWith(
		siphoc.WithRadio(netem.Config{Clock: fake, Shards: 1}),
		siphoc.WithOLSR(&cfg),
		siphoc.WithoutObservability(),
	)
	if err != nil {
		tb.Fatal(err)
	}
	defer sc.Close()

	var msStart runtime.MemStats
	runtime.ReadMemStats(&msStart)
	wallStart := time.Now()
	nodes, err := sc.Grid(side, side, 80, siphoc.WithoutConnectionProvider())
	if err != nil {
		tb.Fatal(err)
	}
	pt := scalePoint{nodes: len(nodes), goroutines: runtime.NumGoroutine() - baseline}

	// Convergence: both far corners route to each other, i.e. topology
	// crossed the full grid diameter in both directions. Each route wait
	// ends in the recompute that installs its route, which stamps the
	// instant.
	start := fake.Now()
	var routed [2]time.Time
	var gates [2]clock.Gate
	ends := [2]*siphoc.Node{nodes[0], nodes[len(nodes)-1]}
	for i, from := range ends {
		gates[i].Init(fake)
		from.Routing().(*olsr.Protocol).RequestRoute(ends[1-i].ID(), func(ok bool) {
			if ok {
				routed[i] = fake.Now()
			}
			gates[i].Open()
		})
	}
	for i := range gates {
		clock.Wait("corner route", -1, &gates[i])
		if routed[i].IsZero() {
			tb.Fatalf("%s found no route to %s within RouteWait", ends[i].ID(), ends[1-i].ID())
		}
		pt.sim.convergence = max(pt.sim.convergence, routed[i].Sub(start))
	}
	pt.sim.tcFwdConv = olsrStats(nodes).TCFwd

	// Drain a full fisheye far period plus slack before measuring.
	// Corner-to-corner routes can come up before every node has heard every
	// origin's last change: an origin whose change-flood budget ran out in
	// bring-up reaches the far zone with it only at its next staggered
	// full-TTL flood, which then delivers first-seen topology — genuine
	// changes, not steady state. Only after one far period is every arrival
	// a pure refresh and recomputes track topology changes (≈0), not
	// messages.
	fake.Sleep(time.Duration(2+cfg.FisheyeFarEvery) * cfg.TCInterval)
	pt.window = 2 * cfg.TCInterval
	before, bytesBefore := olsrStats(nodes), sc.Metrics().Network.RoutingBytes
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	fake.Sleep(pt.window)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	after, m := olsrStats(nodes), sc.Metrics()
	pt.sim.tcFwdRest = after.TCFwd - before.TCFwd
	pt.sim.recomputesRest = after.Recompute - before.Recompute
	pt.sim.routingBytesRest = m.Network.RoutingBytes - bytesBefore
	pt.allocsRest = msAfter.Mallocs - msBefore.Mallocs
	pt.heapAlloc = msAfter.HeapAlloc
	pt.gcCycles = msAfter.NumGC - msStart.NumGC
	pt.gcPause = time.Duration(msAfter.PauseTotalNs - msStart.PauseTotalNs)
	pt.eventsPerWallSec = float64(m.Scheduler.Runs) / time.Since(wallStart).Seconds()
	return pt
}

// olsrStats totals the protocol counters across the grid.
func olsrStats(nodes []*siphoc.Node) olsr.Stats {
	var sum olsr.Stats
	for _, nd := range nodes {
		s := nd.Routing().(*olsr.Protocol).Stats()
		sum.TCFwd += s.TCFwd
		sum.Recompute += s.Recompute
	}
	return sum
}

func BenchmarkControlScale(b *testing.B) {
	sides := []int{5, 10, 15, 20, 32}
	if testing.Short() {
		sides = []int{5, 10}
	}
	for _, side := range sides {
		b.Run(fmt.Sprintf("grid_%dx%d", side, side), func(b *testing.B) {
			for b.Loop() {
				pt := runControlScale(b, side)
				n, rest := float64(pt.nodes), pt.window.Seconds()
				b.ReportMetric(float64(pt.sim.convergence)/float64(time.Millisecond), "sim_convergence_ms")
				b.ReportMetric(float64(pt.sim.tcFwdConv)/n, "tc_fwd_to_conv/node")
				b.ReportMetric(float64(pt.sim.tcFwdRest)/n/rest, "tc_fwd/node/s")
				b.ReportMetric(float64(pt.sim.routingBytesRest)/n/rest, "routing_bytes/node/s")
				b.ReportMetric(float64(pt.sim.recomputesRest)/n, "recomputes/node")
				b.ReportMetric(float64(pt.allocsRest)/n/rest, "allocs/node/s")
				// Memory pressure: what regresses first when routing
				// state grows GC-visible pointers or per-rebuild minting
				// creeps back in. cmd/benchcmp gates heap_alloc_mb and
				// gc_pause_ms.
				b.ReportMetric(float64(pt.heapAlloc)/(1<<20), "heap_alloc_mb")
				b.ReportMetric(float64(pt.gcCycles), "gc_cycles")
				b.ReportMetric(float64(pt.gcPause)/float64(time.Millisecond), "gc_pause_ms")
				b.ReportMetric(pt.eventsPerWallSec, "events_per_wall_s")
			}
		})
	}
}

// TestControlScaleSmoke is the `make check` scale gate, at the size that
// killed the goroutine core: a 32×32 (1024-node) OLSR grid must bring up,
// converge corner to corner, keep the post-bring-up goroutine count
// O(shards) — not O(N) — and hold the incremental-recompute bound
// (recomputes at rest stay O(topology changes), not O(control messages)).
//
// Under -short or -race the grid shrinks to 10×10, at the same timing: the
// race detector multiplies the CPU cost several-fold.
func TestControlScaleSmoke(t *testing.T) {
	side := 32
	if testing.Short() || testutil.Race {
		side = 10
	}
	pt := runControlScale(t, side)
	t.Logf("%d×%d: %+v", side, side, pt.sim)

	// A goroutine per timer would make this number ~7000; the budget covers
	// the shard worker and a little transient slack.
	if pt.goroutines > 64 {
		t.Errorf("post-bring-up goroutines = %d over the baseline for %d nodes; want O(shards)",
			pt.goroutines, pt.nodes)
	}
	if max := int64(3 * pt.nodes); pt.sim.recomputesRest > max {
		t.Fatalf("recomputes at rest = %d over %v for %d nodes (want ≤ %d): O(messages), not O(changes)",
			pt.sim.recomputesRest, pt.window, pt.nodes, max)
	}
}

// TestControlScaleDeterministic runs the 10×10 scale point twice: the virtual
// time columns — convergence instant, TC forwards to convergence and at rest,
// routing bytes and recomputes at rest — must agree exactly.
func TestControlScaleDeterministic(t *testing.T) {
	first, second := runControlScale(t, 10).sim, runControlScale(t, 10).sim
	if first != second {
		t.Fatalf("two runs of one seed differ:\n  %+v\n  %+v", first, second)
	}
	t.Logf("10×10: %+v", first)
}
