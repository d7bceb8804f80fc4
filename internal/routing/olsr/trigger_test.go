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

// emissions counts the HELLOs each node originates, read off the air, and
// records the TTL and ANSN of each TC it originates; emptyTC (not reset by
// take) counts each node's TCs that advertised no selector.
type emissions struct {
	mu      sync.Mutex
	hello   map[netem.NodeID]int
	tc      map[netem.NodeID][]sentTC
	emptyTC map[netem.NodeID]int
}

// sentTC is what the air showed of one TC its origin sent.
type sentTC struct {
	ttl  uint8
	ansn uint16
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
		r.U16() // seq
		sent := sentTC{ansn: r.U16(), ttl: r.U8()}
		e.tc[f.Src] = append(e.tc[f.Src], sent)
		if r.U16() == 0 {
			e.emptyTC[f.Src]++
		}
	}
}

// take returns the records so far and starts new ones.
func (e *emissions) take() (hello map[netem.NodeID]int, tc map[netem.NodeID][]sentTC) {
	e.mu.Lock()
	defer e.mu.Unlock()
	hello, tc = e.hello, e.tc
	e.hello, e.tc = make(map[netem.NodeID]int), make(map[netem.NodeID][]sentTC)
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
	e := &emissions{emptyTC: make(map[netem.NodeID]int)}
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

// routeTo reports whether every node routes to dst.
func routeTo(protos []*Protocol, dst netem.NodeID) bool {
	for _, p := range protos {
		if _, ok := p.NextHop(dst); !ok {
			return false
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
// quarter interval or more after its last run, and a selector set that holds
// for a quarter TC interval reaches the far zone in one flood. With beats
// alone this bring-up took 1.105 s on 3×3 and 2.11 s on 8×8; with near-TTL
// change TCs the 8×8 grid's far zone waited for its origins' phased full
// floods, to 1.225 s. It takes 0.355 s and 0.375 s.
func TestColdGridConvergesInRoundTrips(t *testing.T) {
	for _, tc := range []struct {
		side  int
		limit time.Duration
	}{{3, 600 * time.Millisecond}, {8, 500 * time.Millisecond}} {
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
		if got := len(tc[id]); got != want {
			t.Errorf("%s sent %d TCs at rest, want %d", id, got, want)
		}
	}
}

// TestEmptiedSelectorSetWithdrawsEdges: a node whose MPR selector set empties
// — bring-up makes such transient MPRs — sends empty TCs (RFC 3626 §9.3), so
// its receivers drop the edges it advertised at once. When it fell silent
// instead, those edges expired all together TopologyHold after bring-up, and
// an 8×8 grid rebuilt 63 times in that wave and never again. Two empty TCs
// are enough once the far zone holds no edges of the node's (one at MaxTTL
// took them away, or none went there): the near zone has a copy to spare. A
// former MPR that kept sending them for the whole TopologyHold sent 10 here.
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
	if len(e.emptyTC) == 0 {
		t.Error("no node sent an empty TC: no selector set emptied, so nothing was tested")
	}
	for id, n := range e.emptyTC {
		if n > 2 {
			t.Errorf("%s sent %d empty TCs, want at most 2", id, n)
		}
	}
	t.Logf("%d former MPRs sent empty TCs", len(e.emptyTC))
}

// TestFarZoneLearnsChangeInOneFlood: a selector set that holds for a quarter
// TCInterval goes out at MaxTTL, so a change reaches nodes past the near TTL
// in one flood and not at its origin's next phased full flood, up to a far
// period (2 s) away. On a settled 8×8 grid a newcomer joins beside an MPR of
// the west edge just after that MPR's phased full flood, the worst instant for
// a change sent at the near TTL. The MPR becomes the newcomer's MPR, and the
// east edge, 11 hops or more from it, learns the new edge from the flood:
// every node routes to the newcomer after 465 ms, within 0.5 s. With near-TTL
// change TCs that took 1.315 s. (The newcomer's own table fills at the far
// origins' phased floods: nothing changed there.)
func TestFarZoneLearnsChangeInOneFlood(t *testing.T) {
	cfg := benchTiming()
	fake, net, protos, e := coldGrid(t, 8, cfg)
	convergence(t, fake, protos, 5*time.Second)
	full := cfg.withDefaults()
	fake.Sleep(full.NeighborHold + full.TopologyHold)
	row := -1
	for y := range 8 {
		p := protos[8*y]
		p.mu.Lock()
		mpr := !p.selSet.empty()
		p.mu.Unlock()
		if mpr {
			row = y
			break
		}
	}
	if row < 0 {
		t.Fatal("no node of the west edge is an MPR")
	}
	origin := protos[8*row].host.ID()
	e.take()
	for flooded := false; !flooded; {
		fake.Sleep(time.Millisecond)
		e.mu.Lock()
		for _, s := range e.tc[origin] {
			flooded = flooded || s.ttl == cfg.MaxTTL
		}
		e.mu.Unlock()
	}
	h, err := net.AddHost("newcomer", netem.Position{X: -80, Y: float64(row) * 80})
	if err != nil {
		t.Fatal(err)
	}
	p := New(h, cfg)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)
	const step = 5 * time.Millisecond
	took := time.Duration(0)
	for ; !routeTo(protos, h.ID()); took += step {
		if took > 5*time.Second {
			t.Fatal("the grid did not learn of the newcomer within 5s")
		}
		fake.Sleep(step)
	}
	t.Logf("newcomer beside %s: every node routes to it after %v", origin, took)
	if limit := 500 * time.Millisecond; took > limit {
		t.Errorf("the grid learned of the newcomer after %v, want at most %v", took, limit)
	}
}

// TestRestFloodsFullOnceAFarPeriod: at rest no ANSN moves, so no change flood
// goes out, and every MPR floods at MaxTTL exactly one TC in FisheyeFarEvery,
// on its phase, and at the near TTL otherwise.
func TestRestFloodsFullOnceAFarPeriod(t *testing.T) {
	cfg := benchTiming()
	fake, _, protos, e := coldGrid(t, 8, cfg)
	convergence(t, fake, protos, 5*time.Second)
	full := cfg.withDefaults()
	fake.Sleep(full.NeighborHold + full.TopologyHold)
	e.take()
	const periods = 3
	fake.Sleep(periods * time.Duration(cfg.FisheyeFarEvery) * cfg.TCInterval)
	_, tc := e.take()
	mprs := 0
	for _, p := range protos {
		sent := tc[p.host.ID()]
		if len(sent) == 0 {
			continue
		}
		mprs++
		if len(sent) != periods*cfg.FisheyeFarEvery {
			t.Errorf("%s sent %d TCs in %d far periods, want %d", p.host.ID(), len(sent), periods, periods*cfg.FisheyeFarEvery)
			continue
		}
		last, floods := -1, 0
		for k, s := range sent {
			if s.ansn != sent[0].ansn {
				t.Errorf("%s's ANSN moved at rest: %d, then %d", p.host.ID(), sent[0].ansn, s.ansn)
			}
			switch s.ttl {
			case cfg.MaxTTL:
				if last >= 0 && k-last != cfg.FisheyeFarEvery {
					t.Errorf("%s flooded TCs %d and %d in full, want one in %d", p.host.ID(), last, k, cfg.FisheyeFarEvery)
				}
				last = k
				floods++
			case cfg.FisheyeNearTTL:
			default:
				t.Errorf("%s sent a TC at TTL %d", p.host.ID(), s.ttl)
			}
		}
		if floods != periods {
			t.Errorf("%s flooded %d TCs in full in %d far periods, want %d", p.host.ID(), floods, periods, periods)
		}
	}
	if mprs == 0 {
		t.Fatal("no MPR sent a TC at rest")
	}
}

// peersOfG5 adds to a grid of coldGrid's n peers in range of g.5 alone. They
// run no protocol: the test speaks for them.
func peersOfG5(t *testing.T, net *netem.Network, n int) []*netem.Host {
	t.Helper()
	peers := make([]*netem.Host, n)
	for k := range peers {
		h, err := net.AddHost(netem.NodeName("peer", k+1), netem.Position{X: 10_000 * float64(k+1)})
		if err != nil {
			t.Fatal(err)
		}
		net.SetLink(h.ID(), "g.5", true)
		peers[k] = h
	}
	return peers
}

// sayHello sends a HELLO from peer that lists g.5 as a symmetric neighbour
// and its MPR, or, with mpr false, lists nothing.
func sayHello(peer *netem.Host, mpr bool) {
	var m Hello
	if mpr {
		m.Neighbors = []HelloNeighbor{{Addr: "g.5", Link: LinkSym, MPR: true}}
	}
	var fr routing.Framer
	_ = fr.Send(peer, nil, netem.Broadcast, "HELLO", m.AppendTo(fr.Begin(routing.ProtoOLSR, KindHello)))
}

// flap keeps g.5 changing for d. Eight peers take turns every 5 ms (a
// turn each every 40 ms) to cut or heal their link to it: a cut is a HELLO
// that no longer lists g.5, as from a peer that stopped hearing it, a heal one
// that lists it as a symmetric neighbour and its MPR. Each peer heals once in
// 800 ms, the eight staggered about 100 ms apart: every heal and the cut after
// it flip a link's symmetry, every heal adds a selector and its lapse 600 ms
// later takes one away, so both of g.5's beats are moved far more often than
// they may send.
func flap(fake *clock.Fake, peers []*netem.Host, d time.Duration) {
	const step = 5 * time.Millisecond
	for s := range int(d / step) {
		k := s % len(peers)
		turn := s / len(peers)
		sayHello(peers[k], turn%20 == 5*k/2) // peer k heals on one turn in 20 (800 ms)
		fake.Sleep(step)
	}
}

// TestTriggeredEmissionsRateLimited keeps a converged 3×3 grid's centre
// changing for two seconds (flap). A node's HELLOs stay a quarter
// HelloInterval apart or more and its own TCs a quarter TCInterval, so no
// interval holds more than 4 (+1 at its edge) of either; and once every
// protocol is stopped nothing more goes on the air.
func TestTriggeredEmissionsRateLimited(t *testing.T) {
	cfg := benchTiming()
	fake, net, protos, _ := coldGrid(t, 3, cfg)
	peers := peersOfG5(t, net, 8)
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
	flap(fake, peers, 2*time.Second)
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

// TestChangeFloodsBudgeted grows g.5's selector set by one every 300 ms for
// 10 s: one more of its peers selects it as MPR each time, and every peer
// that has says so again every 100 ms. Each set holds past the TC after the
// one that carried it, so without the budget each would go out at MaxTTL:
// with the budget removed, 33 of g.5's TCs did. Its full floods stay within
// the budget: the phased ones, plus the two it holds, plus one earned back
// per far period. Under faster
// churn (flap), where a set seldom holds that long, g.5 floods only the
// phased ones.
func TestChangeFloodsBudgeted(t *testing.T) {
	cfg := benchTiming()
	fake, net, protos, e := coldGrid(t, 3, cfg)
	const churn = 10 * time.Second
	peers := peersOfG5(t, net, int(churn/(300*time.Millisecond))+1)
	convergence(t, fake, protos, 5*time.Second)
	fake.Sleep(time.Second)
	g5 := protos[4]
	count := func() (uint64, uint64) {
		g5.mu.Lock()
		defer g5.mu.Unlock()
		return g5.tcCount, g5.farPhase
	}
	// phasedIn counts the phased full floods among g.5's TCs from..to.
	phasedIn := func(from, to, phase uint64) int {
		n := 0
		for k := from + 1; k <= to; k++ {
			if k%uint64(cfg.FisheyeFarEvery) == phase {
				n++
			}
		}
		return n
	}
	// floods counts the full floods among sent and the sets it carried.
	floods := func(sent []sentTC) (full, sets int) {
		for k, s := range sent {
			if s.ttl == cfg.MaxTTL {
				full++
			}
			if k == 0 || s.ansn != sent[k-1].ansn {
				sets++
			}
		}
		return full, sets
	}
	budget := 2 + int(churn/(time.Duration(cfg.FisheyeFarEvery)*cfg.TCInterval))

	before, phase := count()
	e.take()
	joined := 0
	for step := range int(churn / (100 * time.Millisecond)) {
		if step%3 == 0 {
			joined++
		}
		for _, p := range peers[:joined] {
			sayHello(p, true)
		}
		fake.Sleep(100 * time.Millisecond)
	}
	_, tc := e.take()
	after, _ := count()
	sent := tc["g.5"]
	if len(sent) != int(after-before) {
		t.Fatalf("the air showed %d of g.5's TCs, its count %d", len(sent), after-before)
	}
	phased := phasedIn(before, after, phase)
	full, sets := floods(sent)
	t.Logf("g.5 sent %d TCs with %d sets in %v, %d on its phase; %d flooded in full, budget %d over the phased", len(sent), sets, churn, phased, full, budget)
	if full > phased+budget {
		t.Errorf("g.5 flooded %d TCs in full in %v, want at most %d", full, churn, phased+budget)
	}
	if full == phased || sets <= 2*budget {
		t.Errorf("%d sets, %d change floods: nothing was tested", sets, full-phased)
	}

	before, _ = count()
	flap(fake, peers[:8], churn)
	_, tc = e.take()
	after, _ = count()
	phased = phasedIn(before, after, phase)
	full, _ = floods(tc["g.5"])
	t.Logf("flapping: g.5 sent %d TCs in %v, %d on its phase; %d flooded in full", after-before, churn, phased, full)
	if full != phased {
		t.Errorf("flapping, g.5 flooded %d TCs in full, want only the %d phased", full, phased)
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
