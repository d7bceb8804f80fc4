package olsr

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
)

// gridConfig is the grid tests' cadence: slower than SimConfig's 40 ms
// HELLO / 80 ms TC, which a 100-node grid does not need to converge and
// whose O(N²) TC flood would only cost simulation time.
func gridConfig() Config {
	return Config{
		HelloInterval: 200 * time.Millisecond,
		TCInterval:    500 * time.Millisecond,
		RouteWait:     15 * time.Second,
	}
}

// gridSide is the edge of the grid the equivalence tests run on.
const gridSide = 10

// startGrid builds a side×side OLSR grid with 80 m spacing (4-neighbour
// connectivity at 100 m range) on a fake clock, and returns the clock, the
// network and the protocols.
func startGrid(t *testing.T, side int) (*clock.Fake, *netem.Network, []*netem.Host, []*Protocol) {
	t.Helper()
	fake := clock.NewFake(time.Unix(1_000_000, 0))
	net := netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond, Clock: fake})
	t.Cleanup(net.Close)
	hosts, err := netem.Grid(net, side, side, 80, "g")
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]*Protocol, len(hosts))
	for i, h := range hosts {
		protos[i] = New(h, gridConfig())
		if err := protos[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, p := range protos {
			p.Stop()
		}
	})
	return fake, net, hosts, protos
}

// recomputes sums the executed recomputes over protos.
func recomputes(protos []*Protocol) int64 {
	var n int64
	for _, p := range protos {
		n += p.Stats().Recompute
	}
	return n
}

// converged lets the grid run for a while after its last change and then
// fails the test unless no node recomputes for a full second: every trailing
// rebuild has drained, so the incremental tables are in sync with the
// link-state inputs and a golden comparison races nothing. (The hold-down
// coalescing lets the table legitimately lag arrivals by HelloInterval/2, so
// comparing while changes are still propagating would report phantom
// divergence.)
func converged(t *testing.T, fake *clock.Fake, protos []*Protocol) {
	t.Helper()
	fake.Sleep(10 * time.Second)
	before := recomputes(protos)
	fake.Sleep(time.Second)
	if after := recomputes(protos); after != before {
		t.Fatalf("%d recomputes a full second after the last change", after-before)
	}
}

// routeAt fails the test unless p has a route to dst and returns its next
// hop.
func routeAt(t *testing.T, p *Protocol, dst netem.NodeID) netem.NodeID {
	t.Helper()
	nh, ok := p.NextHop(dst)
	if !ok {
		t.Fatalf("no route to %s; table: %+v", dst, p.Routes())
	}
	return nh
}

// checkGolden asserts, for every node, that the incrementally maintained
// table is bit-identical to a forced full MPR+BFS rebuild from the same
// link-state inputs. The network must be quiescent when called.
func checkGolden(t *testing.T, protos []*Protocol, phase string) {
	t.Helper()
	for i, p := range protos {
		before := p.Routes()
		p.recomputeFull()
		after := p.Routes()
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: node %d incremental table diverged from full recompute:\nincremental: %+v\nfull:        %+v",
				phase, i, before, after)
		}
	}
}

// TestIncrementalFullEquivalenceGolden drives a seeded random-waypoint
// mobility trace over a 10×10 grid and, at every quiescent checkpoint,
// verifies the incremental route maintenance (dirty tracking + input-hash
// skipping) produces exactly the table a full recompute would.
func TestIncrementalFullEquivalenceGolden(t *testing.T) {
	fake, net, hosts, protos := startGrid(t, gridSide)

	// Let the static grid converge corner-to-corner, drain the trailing
	// rebuilds, then check the baseline.
	converged(t, fake, protos)
	routeAt(t, protos[0], hosts[len(hosts)-1].ID())
	checkGolden(t, protos, "static grid")

	// Seeded mobility: a few movement bursts, each followed by a quiet
	// spell so in-flight updates drain before the equivalence check. The
	// arena tracks the grid footprint (80 m spacing).
	arena := float64(gridSide) * 80
	wp := netem.NewWaypoint(net, arena, arena, 20, 40, 42)
	for burst := range 3 {
		for range 5 {
			wp.Step(0.5)
			fake.Sleep(30 * time.Millisecond)
		}
		converged(t, fake, protos)
		checkGolden(t, protos, fmt.Sprintf("after mobility burst %d", burst))
	}
}

// TestRecomputeRegressionBound pins the control-plane win: on a converged
// static 10×10 grid, steady-state HELLO/TC refreshes re-advertise unchanged
// state, so executed recomputes per node over a measurement window must stay
// far below both the arrival count and the coalesced PR-3 baseline (which
// still ran one rebuild per hold-down window, ~2/interval/node).
func TestRecomputeRegressionBound(t *testing.T) {
	fake, _, hosts, protos := startGrid(t, gridSide)
	// Converge: opposite corners route to each other.
	converged(t, fake, protos)
	routeAt(t, protos[0], hosts[len(hosts)-1].ID())
	routeAt(t, protos[len(protos)-1], hosts[0].ID())

	before := make([]Stats, len(protos))
	for i, p := range protos {
		before[i] = p.Stats()
	}
	const window = 2 * time.Second
	fake.Sleep(window)

	var arrivals, recomputes int64
	for i, p := range protos {
		d := p.Stats()
		arrivals += (d.HelloSent - before[i].HelloSent) +
			(d.TCSent - before[i].TCSent) + (d.TCFwd - before[i].TCFwd)
		recomputes += d.Recompute - before[i].Recompute
	}
	if arrivals == 0 {
		t.Fatal("no control traffic during the window")
	}
	// The PR-3 coalescing baseline bound (recomputes ≤ arrivals/2) must
	// still hold with a wide margin…
	if recomputes*2 > arrivals {
		t.Fatalf("recompute rate regressed past the coalescing baseline: %d recomputes for %d emissions",
			recomputes, arrivals)
	}
	// …and the incremental scheme must make steady state O(topology
	// changes), i.e. near-zero on a static grid, not O(messages).
	if max := int64(3 * len(protos)); recomputes > max {
		t.Fatalf("steady-state recomputes = %d over %v for %d nodes (want ≤ %d): not O(changes)",
			recomputes, window, len(protos), max)
	}
}

// TestHelloSteadyStateZeroAlloc pins steady-state per-HELLO processing at 0
// allocations: once the link and 2-hop set are installed, an unchanged HELLO
// must compare in place and schedule nothing.
func TestHelloSteadyStateZeroAlloc(t *testing.T) {
	net := netem.NewNetwork(netem.Config{})
	defer net.Close()
	h, err := net.AddHost("self", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	p := New(h, SimConfig()) // not started: no timers interfere with the count
	m := &Hello{Neighbors: []HelloNeighbor{
		{Addr: "self", Link: LinkSym},
		{Addr: "n2", Link: LinkSym},
		{Addr: "n3", Link: LinkSym},
		{Addr: "n4", Link: LinkAsym},
	}}
	// Pin the wire path itself: the frame handler hands handleHello the raw
	// body, so the pre-marshalled bytes here measure exactly what a received
	// broadcast costs — parse, link sensing, 2-hop compare.
	body := m.AppendTo(nil)
	p.handleHello("n1", body) // installs link + 2-hop set
	if allocs := testing.AllocsPerRun(200, func() { p.handleHello("n1", body) }); allocs != 0 {
		t.Fatalf("steady-state HELLO processing allocates %.1f times per run, want 0", allocs)
	}
	// The unchanged arrivals must not have dirtied the route state.
	if st := p.Stats(); st.Recompute != 0 {
		t.Fatalf("unchanged HELLOs executed %d recomputes", st.Recompute)
	}
}

// TestInputHashSkipsIdenticalRebuild exercises the second line of defence:
// recompute() invoked with unchanged inputs (e.g. the trailing hold-down
// rebuild) must skip the MPR+BFS work and count the skip.
func TestInputHashSkipsIdenticalRebuild(t *testing.T) {
	net := netem.NewNetwork(netem.Config{})
	defer net.Close()
	h, err := net.AddHost("self", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	p := New(h, SimConfig())
	p.onHello("n1", &Hello{Neighbors: []HelloNeighbor{
		{Addr: "self", Link: LinkSym},
		{Addr: "n2", Link: LinkSym},
	}})
	p.recompute()
	st := p.Stats()
	if st.Recompute != 1 {
		t.Fatalf("first recompute executed %d rebuilds, want 1", st.Recompute)
	}
	routes := p.Routes()
	if len(routes) == 0 {
		t.Fatal("no routes after first recompute")
	}
	p.recompute() // identical inputs: must be elided
	st = p.Stats()
	if st.Recompute != 1 || st.RecomputeSkipped == 0 {
		t.Fatalf("identical rebuild not skipped: %+v", st)
	}
	if !reflect.DeepEqual(routes, p.Routes()) {
		t.Fatal("skipped rebuild changed the table")
	}
	// A real change must defeat the hash and rebuild.
	p.onHello("n5", &Hello{Neighbors: []HelloNeighbor{{Addr: "self", Link: LinkSym}}})
	p.recompute()
	if st = p.Stats(); st.Recompute != 2 {
		t.Fatalf("changed inputs did not rebuild: %+v", st)
	}
}
