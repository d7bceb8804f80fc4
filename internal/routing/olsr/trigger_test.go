package olsr

import (
	"sync"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/routing"
	"siphoc/internal/testutil"
	"siphoc/internal/wire"
)

// benchTiming is the OLSR timing of the repository's grid benchmarks: HELLO
// every 200 ms, TC every 500 ms, fisheye-scoped at TTL 8 with every fourth TC
// flooded in full.
func benchTiming() Config {
	return Config{
		HelloInterval:   200 * time.Millisecond,
		TCInterval:      500 * time.Millisecond,
		MaxTTL:          64,
		RouteWait:       time.Minute,
		Fisheye:         true,
		FisheyeNearTTL:  8,
		FisheyeFarEvery: 4,
	}
}

// emissions counts the HELLOs and TCs each node originates, read off the air,
// and (not reset by take) the TCs that advertised no selector.
type emissions struct {
	mu      sync.Mutex
	hello   map[netem.NodeID]int
	tc      map[netem.NodeID]int
	emptyTC int
}

func (e *emissions) tap(f netem.Frame) {
	var env routing.Envelope
	if f.Kind != netem.KindRouting || routing.ParseEnvelopeInto(&env, f.Payload) != nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch env.Kind {
	case KindHello:
		e.hello[f.Src]++
	case KindTC:
		// A relayed TC is sent by its relay too; only the origin's own counts.
		r := wire.NewReader(env.Body)
		if string(r.StringBytes()) != string(f.Src) {
			return
		}
		e.tc[f.Src]++
		r.U16() // seq
		r.U16() // ANSN
		r.U8()  // TTL
		if r.U16() == 0 {
			e.emptyTC++
		}
	}
}

// take returns the counts so far and starts new ones.
func (e *emissions) take() (hello, tc map[netem.NodeID]int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	hello, tc = e.hello, e.tc
	e.hello, e.tc = make(map[netem.NodeID]int), make(map[netem.NodeID]int)
	return hello, tc
}

// coldGrid brings up a side×side grid at 80 m spacing (four neighbours at the
// default range) on a self-advancing fake clock driving a one-shard network,
// one node after another as a scenario does, with every frame on the air
// counted by the returned tally.
func coldGrid(t *testing.T, side int, cfg Config) (*clock.Fake, *netem.Network, []*Protocol, *emissions) {
	t.Helper()
	fake := clock.NewFake(time.Unix(5_000_000, 0))
	net := netem.NewNetwork(netem.Config{BaseDelay: time.Millisecond, Clock: fake, Shards: 1})
	t.Cleanup(net.Close)
	e := &emissions{}
	e.take()
	net.SetTap(e.tap)
	protos := make([]*Protocol, 0, side*side)
	t.Cleanup(func() {
		for _, p := range protos {
			p.Stop()
		}
	})
	for i := range side * side {
		h, err := net.AddHost(netem.NodeName("g", i+1), netem.Position{X: float64(i%side) * 80, Y: float64(i/side) * 80})
		if err != nil {
			t.Fatal(err)
		}
		p := New(h, cfg)
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		protos = append(protos, p)
	}
	return fake, net, protos, e
}

// routesEverywhere reports whether every node routes to every other.
func routesEverywhere(protos []*Protocol) bool {
	for _, p := range protos {
		for _, q := range protos {
			if p == q {
				continue
			}
			if _, ok := p.NextHop(q.host.ID()); !ok {
				return false
			}
		}
	}
	return true
}

// convergence steps the clock 5 ms at a time from the bring-up until every
// node routes to every other, and returns the virtual time that took.
func convergence(t *testing.T, fake *clock.Fake, protos []*Protocol, limit time.Duration) time.Duration {
	t.Helper()
	const step = 5 * time.Millisecond
	for took := time.Duration(0); took <= limit; took += step {
		if routesEverywhere(protos) {
			return took
		}
		fake.Sleep(step)
	}
	t.Fatalf("the grid did not converge within %v", limit)
	return 0
}

// TestColdGridConvergesInRoundTrips: a cold grid's routes are complete after a
// few HELLO and TC round trips, not after beats. Each node says hello when it
// starts, and a neighbour's answer, a link turned symmetric, a new MPR set or
// a new selector each move the beat they change to the node's next tick, a
// quarter interval or more after its last run. With beats alone this bring-up
// took 1.105 s on 3×3 and 2.11 s on 8×8; it takes 0.505 s and 1.41 s.
func TestColdGridConvergesInRoundTrips(t *testing.T) {
	for _, tc := range []struct {
		side  int
		limit time.Duration
	}{{3, 600 * time.Millisecond}, {8, 1500 * time.Millisecond}} {
		fake, _, protos, _ := coldGrid(t, tc.side, benchTiming())
		took := convergence(t, fake, protos, 5*time.Second)
		t.Logf("%d×%d grid: every node routes to every other after %v", tc.side, tc.side, took)
		if took > tc.limit {
			t.Errorf("%d×%d grid converged after %v, want at most %v", tc.side, tc.side, took, tc.limit)
		}
	}
}

// TestConvergedGridSendsOnlyBeats: at rest no trigger fires. Once an 8×8
// grid has converged and settled — the last selectors of the bring-up's
// transient MPRs have lapsed, and their empty TCs have run out — every node
// sends one HELLO per HelloInterval and, if it is an MPR, one TC per
// TCInterval, nothing more: 25 HELLOs and 10 or no TCs in five seconds.
func TestConvergedGridSendsOnlyBeats(t *testing.T) {
	cfg := benchTiming()
	fake, _, protos, e := coldGrid(t, 8, cfg)
	convergence(t, fake, protos, 5*time.Second)
	full := cfg.withDefaults()
	fake.Sleep(full.NeighborHold + full.TopologyHold)
	e.take()
	const window = 5 * time.Second
	fake.Sleep(window)
	hello, tc := e.take()
	for _, p := range protos {
		id := p.host.ID()
		if got, want := hello[id], int(window/cfg.HelloInterval); got != want {
			t.Errorf("%s sent %d HELLOs at rest, want %d", id, got, want)
		}
		p.mu.Lock()
		mpr := !p.selSet.empty()
		p.mu.Unlock()
		want := 0
		if mpr {
			want = int(window / cfg.TCInterval)
		}
		if got := tc[id]; got != want {
			t.Errorf("%s sent %d TCs at rest, want %d", id, got, want)
		}
	}
}

// TestEmptiedSelectorSetWithdrawsEdges: a node whose MPR selector set empties
// — bring-up makes such transient MPRs — sends TCs, empty ones, for as long as
// its receivers hold the edges it advertised (RFC 3626 §9.3), so they drop
// them at once. When it fell silent instead, those edges expired all together
// TopologyHold after bring-up, and an 8×8 grid rebuilt 63 times in that wave
// and never again.
func TestEmptiedSelectorSetWithdrawsEdges(t *testing.T) {
	cfg := benchTiming()
	hold := cfg.withDefaults().TopologyHold
	fake, _, protos, e := coldGrid(t, 8, cfg)
	fake.Sleep(hold - 500*time.Millisecond)
	before := recomputes(protos)
	fake.Sleep(2 * time.Second)
	if n := recomputes(protos) - before; n != 0 {
		t.Errorf("%d rebuilds within a second of TopologyHold (%v) after bring-up, want 0", n, hold)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.emptyTC == 0 {
		t.Error("no node sent an empty TC: no selector set emptied, so nothing was tested")
	}
}

// TestTriggeredEmissionsRateLimited keeps a converged 3×3 grid's centre
// changing for two seconds. Eight peers in range of g.5 alone take turns every
// 5 ms (a turn each every 40 ms) to cut or heal their link to it: a cut is a
// HELLO that no longer lists g.5, as from a peer that stopped hearing it, a
// heal one that lists it as a symmetric neighbour and its MPR. Each peer
// heals once in 800 ms, the eight staggered about 100 ms apart: every heal
// and the cut after it flip a link's symmetry, every heal adds a selector and
// its lapse 600 ms later takes one away, so both of g.5's beats are moved far
// more often than they may send. A node's HELLOs stay a quarter HelloInterval
// apart or more and its own TCs a quarter TCInterval, so no interval holds
// more than 4 (+1 at its edge) of either; and once every protocol is stopped
// nothing more goes on the air.
func TestTriggeredEmissionsRateLimited(t *testing.T) {
	cfg := benchTiming()
	fake, net, protos, _ := coldGrid(t, 3, cfg)
	const peers = 8
	hosts := make([]*netem.Host, peers)
	for k := range hosts {
		h, err := net.AddHost(netem.NodeName("peer", k+1), netem.Position{X: 10_000 * float64(k+1)})
		if err != nil {
			t.Fatal(err)
		}
		net.SetLink(h.ID(), "g.5", true)
		hosts[k] = h
	}
	convergence(t, fake, protos, 5*time.Second)
	fake.Sleep(time.Second)

	type send struct {
		at    time.Duration
		hello bool
	}
	var mu sync.Mutex
	sends := make(map[netem.NodeID][]send)
	frames := 0
	start := fake.Now()
	net.SetTap(func(f netem.Frame) {
		var env routing.Envelope
		if f.Kind != netem.KindRouting || routing.ParseEnvelopeInto(&env, f.Payload) != nil {
			return
		}
		at := fake.Now().Sub(start)
		mu.Lock()
		defer mu.Unlock()
		frames++
		switch {
		case env.Kind == KindHello:
			sends[f.Src] = append(sends[f.Src], send{at, true})
		case string(wire.NewReader(env.Body).StringBytes()) == string(f.Src):
			sends[f.Src] = append(sends[f.Src], send{at, false})
		}
	})
	const step = 5 * time.Millisecond
	var fr routing.Framer
	for s := range int(2 * time.Second / step) {
		k := s % peers
		var m Hello
		if turn := s / peers; turn%20 == 5*k/2 { // peer k heals on one turn in 20 (800 ms)
			m.Neighbors = []HelloNeighbor{{Addr: "g.5", Link: LinkSym, MPR: true}}
		}
		_ = fr.Send(hosts[k], nil, netem.Broadcast, "HELLO", m.AppendTo(fr.Begin(routing.ProtoOLSR, KindHello)))
		fake.Sleep(step)
	}
	for _, p := range protos {
		p.Stop()
	}
	mu.Lock()
	stopped := frames
	mu.Unlock()
	fake.Sleep(2 * time.Second)

	mu.Lock()
	defer mu.Unlock()
	if frames != stopped {
		t.Errorf("%d frames sent after every protocol stopped", frames-stopped)
	}
	for _, p := range protos {
		id := p.host.ID()
		for _, kind := range []struct {
			hello    bool
			interval time.Duration
		}{{true, cfg.HelloInterval}, {false, cfg.TCInterval}} {
			var at []time.Duration
			for _, s := range sends[id] {
				if s.hello == kind.hello {
					at = append(at, s.at)
				}
			}
			perInterval := make(map[time.Duration]int)
			for j, a := range at {
				if j > 0 && a-at[j-1] < kind.interval/4 {
					t.Errorf("%s sent at %v and %v (HELLO: %v), less than a quarter of %v apart", id, at[j-1], a, kind.hello, kind.interval)
				}
				if perInterval[a/kind.interval]++; perInterval[a/kind.interval] > 4+1 {
					t.Errorf("%s sent %d messages (HELLO: %v) in interval %d", id, perInterval[a/kind.interval], kind.hello, a/kind.interval)
				}
			}
		}
	}
	// The peers must have moved g.5's beats: beats alone send 10 HELLOs and 4
	// TCs in two seconds.
	hellos, tcs := 0, 0
	for _, s := range sends["g.5"] {
		if s.hello {
			hellos++
		} else {
			tcs++
		}
	}
	t.Logf("g.5 sent %d HELLOs and %d TCs in two seconds", hellos, tcs)
	if hellos <= 10 || tcs <= 4 {
		t.Errorf("g.5 sent %d HELLOs and %d TCs in two seconds, no more than its beats alone", hellos, tcs)
	}
}

// TestHoldDownAllocFree pins the recompute hold-down at no allocation: the
// window is one task bound at construction and re-armed with At, like the
// beats, however often arrivals open it. A cycle opens a window with two
// arrivals of one instant, which share the recompute of the instant after,
// folds a later arrival into the trailing recompute of the next half tick,
// and lets the window close on the half tick after. A cycle is two ticks
// long, so every one starts at the same point between ticks.
func TestHoldDownAllocFree(t *testing.T) {
	fake := clock.NewFake(time.Unix(6_000_000, 0))
	net := netem.NewNetwork(netem.Config{Clock: fake, Shards: 1})
	defer net.Close()
	h, err := net.AddHost("solo", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimConfig()
	p := New(h, cfg)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	tick := cfg.HelloInterval / 4
	cycle := func() {
		p.scheduleRecompute()
		p.scheduleRecompute()
		fake.Sleep(time.Microsecond)
		p.scheduleRecompute()
		fake.Sleep(2*tick - time.Microsecond)
	}
	cycle()
	before := p.Stats()
	if testutil.Race {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Errorf("%v allocations per hold-down cycle, want 0", allocs)
	}
	// Two rebuilds a cycle, both skipped on unchanged inputs: the one the
	// window opened with and the trailing one.
	st := p.Stats()
	if got := st.Recompute + st.RecomputeSkipped - before.Recompute - before.RecomputeSkipped; got != 2*(runs+1) {
		t.Errorf("%d rebuilds in %d cycles, want 2 a cycle", got, runs+1)
	}
	p.mu.Lock()
	hold := p.recomputeHold
	p.mu.Unlock()
	if hold {
		t.Error("the last window never closed")
	}
}

// TestRouteWaitEndsOnRecompute: a datagram that waits for a route is released
// by the recompute that installs it. The wait used to poll every half HELLO
// interval (100 ms here), so a route found a moment after a poll cost the
// datagram the rest of the poll. On a cold 3×3 grid, g.1 asks for the route
// to g.9, four hops away, at bring-up; the callback must come no later than
// the first 1 ms step that finds the route in the table.
func TestRouteWaitEndsOnRecompute(t *testing.T) {
	fake, _, protos, _ := coldGrid(t, 3, benchTiming())
	src, dst := protos[0], protos[8].host.ID()
	var (
		mu    sync.Mutex
		ended time.Time
		found bool
	)
	src.RequestRoute(dst, func(ok bool) {
		mu.Lock()
		defer mu.Unlock()
		ended, found = fake.Now(), ok
	})
	var routed time.Time
	for step := 0; routed.IsZero(); step++ {
		if step == 5000 {
			t.Fatal("no route to g.9 in 5 s")
		}
		fake.Sleep(time.Millisecond)
		if _, ok := src.NextHop(dst); ok {
			routed = fake.Now()
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if !found || ended.IsZero() || ended.After(routed) {
		t.Fatalf("route in the table by %v, wait ended at %v (found=%v)", routed, ended, found)
	}
	if routed.Sub(ended) >= time.Millisecond {
		t.Fatalf("wait ended at %v, before the route was in the table (%v)", ended, routed)
	}
}
