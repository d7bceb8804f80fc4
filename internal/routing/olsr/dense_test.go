package olsr

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/routing"
	"siphoc/internal/testutil"
)

// ---------------------------------------------------------------------------
// Map-backed reference model
//
// refModel is the string-keyed, map-backed OLSR state machine this package
// used before the dense-state rewrite, retained verbatim as an executable
// specification: the property test below drives the dense core and this
// model through the same random op sequence and demands bit-identical route
// tables at every step. If the handle ranks, the bitsets or the pooled BFS ever
// diverge from the map semantics — tie-breaks, expiry edges, ANSN purges —
// this is the test that names the op sequence that did it.
// ---------------------------------------------------------------------------

type refLink struct {
	lastHeard time.Time
	sym       bool
}

type refTopo struct {
	ansn    uint16
	expires time.Time
}

type refModel struct {
	self         netem.NodeID
	neighborHold time.Duration
	topologyHold time.Duration
	links        map[netem.NodeID]*refLink
	twoHop       map[netem.NodeID]map[netem.NodeID]bool
	selectors    map[netem.NodeID]time.Time
	topology     map[netem.NodeID]map[netem.NodeID]refTopo
}

func newRefModel(self netem.NodeID, cfg Config) *refModel {
	return &refModel{
		self:         self,
		neighborHold: cfg.neighborHold(),
		topologyHold: cfg.TopologyHold,
		links:        make(map[netem.NodeID]*refLink),
		twoHop:       make(map[netem.NodeID]map[netem.NodeID]bool),
		selectors:    make(map[netem.NodeID]time.Time),
		topology:     make(map[netem.NodeID]map[netem.NodeID]refTopo),
	}
}

func (r *refModel) onHello(now time.Time, from netem.NodeID, m *Hello) {
	ls, ok := r.links[from]
	if !ok {
		ls = &refLink{}
		r.links[from] = ls
	}
	ls.lastHeard = now
	sym := false
	for _, nb := range m.Neighbors {
		if nb.Addr == r.self {
			sym = true
			if nb.MPR {
				r.selectors[from] = now.Add(r.neighborHold)
			}
		}
	}
	ls.sym = sym
	set := make(map[netem.NodeID]bool)
	for _, nb := range m.Neighbors {
		if nb.Addr == r.self || nb.Link != LinkSym {
			continue
		}
		set[nb.Addr] = true
	}
	r.twoHop[from] = set
}

func (r *refModel) onTC(now time.Time, m *TC) {
	if m.Orig == r.self {
		return
	}
	tm := r.topology[m.Orig]
	if tm == nil {
		tm = make(map[netem.NodeID]refTopo)
		r.topology[m.Orig] = tm
	}
	for _, sel := range m.Selectors {
		if cur, ok := tm[sel]; !ok || !ansnOlder(m.ANSN, cur.ansn) {
			tm[sel] = refTopo{ansn: m.ANSN, expires: now.Add(r.topologyHold)}
		}
	}
	for dest, v := range tm {
		if ansnOlder(v.ansn, m.ANSN) {
			delete(tm, dest)
		}
	}
	if len(tm) == 0 {
		delete(r.topology, m.Orig)
	}
}

func (r *refModel) expire(now time.Time) {
	for nb, ls := range r.links {
		if now.Sub(ls.lastHeard) > r.neighborHold {
			delete(r.links, nb)
			delete(r.twoHop, nb)
		}
	}
	for nb, exp := range r.selectors {
		if now.After(exp) {
			delete(r.selectors, nb)
		}
	}
	for orig, tm := range r.topology {
		for dest, v := range tm {
			if now.After(v.expires) {
				delete(tm, dest)
			}
		}
		if len(tm) == 0 {
			delete(r.topology, orig)
		}
	}
}

// routes runs the original greedy-MPR + BFS recompute and returns the route
// table sorted by destination, plus the selected MPR set.
func (r *refModel) routes(now time.Time) ([]routing.Entry, []netem.NodeID) {
	symNbs := make([]netem.NodeID, 0, len(r.links))
	for nb, ls := range r.links {
		if ls.sym {
			symNbs = append(symNbs, nb)
		}
	}
	uncovered := make(map[netem.NodeID]bool)
	for _, nb := range symNbs {
		for two := range r.twoHop[nb] {
			if two == r.self {
				continue
			}
			if l, direct := r.links[two]; direct && l.sym {
				continue
			}
			uncovered[two] = true
		}
	}
	mprs := make(map[netem.NodeID]bool)
	for len(uncovered) > 0 {
		var best netem.NodeID
		bestCover := 0
		for _, nb := range symNbs {
			if mprs[nb] {
				continue
			}
			cover := 0
			for two := range r.twoHop[nb] {
				if uncovered[two] {
					cover++
				}
			}
			if cover > bestCover || (cover == bestCover && cover > 0 && (best == "" || nb < best)) {
				best, bestCover = nb, cover
			}
		}
		if bestCover == 0 {
			break
		}
		mprs[best] = true
		for two := range r.twoHop[best] {
			delete(uncovered, two)
		}
	}

	sort.Slice(symNbs, func(i, j int) bool { return symNbs[i] < symNbs[j] })
	type hop struct {
		next netem.NodeID
		dist int
	}
	routes := make(map[netem.NodeID]hop)
	queue := make([]netem.NodeID, 0, len(symNbs))
	for _, nb := range symNbs {
		routes[nb] = hop{next: nb, dist: 1}
		queue = append(queue, nb)
	}
	adj := make(map[netem.NodeID][]netem.NodeID)
	for orig, tm := range r.topology {
		for dest, v := range tm {
			if now.After(v.expires) {
				continue
			}
			adj[orig] = append(adj[orig], dest)
			adj[dest] = append(adj[dest], orig)
		}
	}
	for nb, set := range r.twoHop {
		for two := range set {
			adj[nb] = append(adj[nb], two)
		}
	}
	for _, edges := range adj {
		sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		curHop := routes[cur]
		for _, nxt := range adj[cur] {
			if nxt == r.self {
				continue
			}
			if _, seen := routes[nxt]; seen {
				continue
			}
			routes[nxt] = hop{next: curHop.next, dist: curHop.dist + 1}
			queue = append(queue, nxt)
		}
	}
	entries := make([]routing.Entry, 0, len(routes))
	for dst, h := range routes {
		entries = append(entries, routing.Entry{Dst: dst, NextHop: h.next, Hops: h.dist})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Dst < entries[j].Dst })
	mprList := make([]netem.NodeID, 0, len(mprs))
	for id := range mprs {
		mprList = append(mprList, id)
	}
	sort.Slice(mprList, func(i, j int) bool { return mprList[i] < mprList[j] })
	return entries, mprList
}

// densePropConfig is the timing the property test runs at: short holds (the
// neighbour hold is 3×HELLO, 300 ms) so the random clock advances exercise
// expiry, revival and purge paths, not just steady refresh.
func densePropConfig() Config {
	return Config{
		HelloInterval: 100 * time.Millisecond,
		TCInterval:    200 * time.Millisecond,
		TopologyHold:  500 * time.Millisecond,
	}.withDefaults()
}

// TestDenseReferenceEquivalence drives the dense-state core and the
// map-backed reference model through the same seeded random op sequence —
// HELLO arrivals with random neighbourhoods, TC arrivals with advancing and
// stale ANSNs, clock jumps, expiry sweeps — and asserts the recomputed route
// table and MPR set are identical after every op.
func TestDenseReferenceEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 42, 20260809} {
		t.Run(fmt.Sprintf("seed_%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fake := clock.NewFake(time.Unix(1_000_000, 0))
			net := netem.NewNetwork(netem.Config{Clock: fake})
			defer net.Close()
			host, err := net.AddHost("self", netem.Position{})
			if err != nil {
				t.Fatal(err)
			}
			cfg := densePropConfig()
			p := New(host, cfg) // not started: ops drive it directly
			model := newRefModel(host.ID(), cfg)

			// A fixed universe of node IDs, a deliberate mix of lengths so
			// lexical order differs from generation order.
			ids := make([]netem.NodeID, 0, 24)
			for i := range 24 {
				ids = append(ids, netem.NodeID(fmt.Sprintf("n%d", i+1)))
			}
			ansn := make(map[netem.NodeID]uint16)
			seq := uint16(0)

			randomSubset := func(includeSelf bool) []netem.NodeID {
				k := rng.Intn(6)
				perm := rng.Perm(len(ids))
				out := make([]netem.NodeID, 0, k+1)
				for _, j := range perm[:k] {
					out = append(out, ids[j])
				}
				if includeSelf && rng.Intn(2) == 0 {
					out = append(out, "self")
				}
				return out
			}

			const ops = 600
			for op := 0; op < ops; op++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // HELLO
					from := ids[rng.Intn(len(ids))]
					m := &Hello{}
					for _, addr := range randomSubset(true) {
						link := LinkSym
						if rng.Intn(4) == 0 {
							link = LinkAsym
						}
						m.Neighbors = append(m.Neighbors, HelloNeighbor{
							Addr: addr,
							Link: link,
							MPR:  rng.Intn(3) == 0,
						})
					}
					now := fake.Now()
					p.onHello(from, m)
					model.onHello(now, from, m)
				case 4, 5, 6: // TC
					orig := ids[rng.Intn(len(ids))]
					if rng.Intn(3) != 0 {
						ansn[orig]++ // sometimes re-advertise the old ANSN
					}
					seq++
					m := &TC{Orig: orig, Seq: seq, ANSN: ansn[orig], TTL: 1,
						Selectors: randomSubset(false)}
					now := fake.Now()
					p.onTC(orig, m)
					model.onTC(now, m)
				case 7, 8: // time passes
					fake.Sleep(time.Duration(rng.Intn(120)) * time.Millisecond)
				case 9: // expiry sweep
					now := fake.Now()
					p.expire()
					model.expire(now)
				}
				p.recomputeFull()
				now := fake.Now()
				got := p.Routes()
				want, wantMPRs := model.routes(now)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d: dense core diverged from map reference:\ndense: %+v\nref:   %+v",
						op, got, want)
				}
				gotMPRs := p.MPRs()
				sort.Slice(gotMPRs, func(i, j int) bool { return gotMPRs[i] < gotMPRs[j] })
				if !reflect.DeepEqual(gotMPRs, wantMPRs) {
					t.Fatalf("op %d: MPR set diverged:\ndense: %v\nref:   %v", op, gotMPRs, wantMPRs)
				}
			}
		})
	}
}

// TestTCSteadyStateZeroAlloc pins steady-state per-TC processing at 0
// allocations: once the origin's edges are installed and every selector is
// interned, a refresh TC (new seq, same ANSN and selector set) must update
// expiries, maintain the duplicate set and allocate nothing. The tiny
// TCInterval lets each seq take an expired slot of the origin's row.
func TestTCSteadyStateZeroAlloc(t *testing.T) {
	net := netem.NewNetwork(netem.Config{})
	defer net.Close()
	h, err := net.AddHost("self", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	p := New(h, Config{TCInterval: time.Nanosecond, TopologyHold: time.Hour}.withDefaults())
	// One marshalled body reused across runs with only the seq bytes
	// patched, exactly as the wire path sees refresh TCs: the pin covers
	// parse, duplicate-set maintenance and edge refresh together.
	m := &TC{Orig: "orig", Seq: 0, ANSN: 7, TTL: 1,
		Selectors: []netem.NodeID{"a", "b", "c"}}
	body := m.AppendTo(nil)
	seqOff := 2 + len(m.Orig)
	seq := m.Seq
	send := func() {
		seq++
		binary.BigEndian.PutUint16(body[seqOff:], seq)
		p.handleTC("n1", body)
	}
	send() // installs edges, interns all IDs
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Fatalf("steady-state onTC allocates %.1f times per run, want 0", allocs)
	}
	if st := p.Stats(); st.Recompute != 0 {
		t.Fatalf("refresh TCs executed %d recomputes", st.Recompute)
	}
}

// TestRecomputeAllocBound is the recompute-allocation regression bound: with
// the pooled scratch and the route table written in place, a full rebuild
// over a settled topology must not allocate at all once the pools have seen
// the topology's high-water size. Before the dense-state rewrite this path
// minted fresh maps and slices on every rebuild — 77% of all bytes the
// 1024-node scale study allocated.
func TestRecomputeAllocBound(t *testing.T) {
	net := netem.NewNetwork(netem.Config{})
	defer net.Close()
	h, err := net.AddHost("self", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	p := New(h, Config{HelloInterval: 20 * time.Minute, TopologyHold: time.Hour}.withDefaults())
	// A 3-hop deep topology: 6 sym neighbours, each advertising a 2-hop
	// neighbourhood, plus TC edges extending the BFS outward.
	for i := range 6 {
		nb := netem.NodeID(fmt.Sprintf("nb%d", i))
		m := &Hello{Neighbors: []HelloNeighbor{
			{Addr: "self", Link: LinkSym},
			{Addr: netem.NodeID(fmt.Sprintf("two%d", i)), Link: LinkSym},
			{Addr: netem.NodeID(fmt.Sprintf("two%d", (i+1)%6)), Link: LinkSym},
		}}
		p.onHello(nb, m)
	}
	for i := range 6 {
		p.onTC("ignored", &TC{
			Orig: netem.NodeID(fmt.Sprintf("two%d", i)), Seq: uint16(i + 1), ANSN: 1, TTL: 1,
			Selectors: []netem.NodeID{netem.NodeID(fmt.Sprintf("far%d", i))},
		})
	}
	p.recomputeFull() // warm the pools at this topology size
	if len(p.Routes()) < 12 {
		t.Fatalf("topology too small to be a meaningful pin: %d routes", len(p.Routes()))
	}
	if allocs := testing.AllocsPerRun(100, p.recomputeFull); allocs != 0 {
		t.Fatalf("settled full recompute allocates %.1f times per run, want 0", allocs)
	}
}

// TestNextHopAllocFree pins the forwarding path's route lookup at zero
// allocations: the destination resolves through the handle table and the route is
// read out of the table the BFS wrote, with no clock read and no row copied.
func TestNextHopAllocFree(t *testing.T) {
	net := netem.NewNetwork(netem.Config{})
	defer net.Close()
	h, err := net.AddHost("self", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	p := New(h, Config{HelloInterval: 20 * time.Minute, TopologyHold: time.Hour}.withDefaults())
	p.onHello("nb", &Hello{Neighbors: []HelloNeighbor{{Addr: "self", Link: LinkSym}, {Addr: "two", Link: LinkSym}}})
	p.onTC("nb", &TC{Orig: "two", Seq: 1, ANSN: 1, TTL: 1, Selectors: []netem.NodeID{"far"}})
	p.recomputeFull()
	var via netem.NodeID
	var ok bool
	if allocs := testing.AllocsPerRun(200, func() { via, ok = p.NextHop("far") }); allocs != 0 {
		t.Fatalf("NextHop allocates %.1f times per lookup, want 0", allocs)
	}
	if !ok || via != "nb" {
		t.Fatalf("NextHop(far) = %q, %v; want nb", via, ok)
	}
	for _, dst := range []netem.NodeID{"self", "unknown"} {
		if via, ok := p.NextHop(dst); ok {
			t.Fatalf("NextHop(%s) = %q, want no route", dst, via)
		}
	}
	want := []routing.Entry{{Dst: "far", NextHop: "nb", Hops: 3}, {Dst: "nb", NextHop: "nb", Hops: 1}, {Dst: "two", NextHop: "nb", Hops: 2}}
	if got := p.Routes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Routes() = %+v, want %+v", got, want)
	}
}

// TestRecomputeWithoutNewNodeAllocFree pins a recompute that changes the routes
// but meets no node it has not interned — a TC moving an origin's selector
// between known nodes, then back — at zero allocations: the BFS rewrites the
// route table in place.
func TestRecomputeWithoutNewNodeAllocFree(t *testing.T) {
	net := netem.NewNetwork(netem.Config{})
	defer net.Close()
	h, err := net.AddHost("self", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	p := New(h, Config{HelloInterval: 20 * time.Minute, TCInterval: time.Nanosecond, TopologyHold: time.Hour}.withDefaults())
	p.onHello("nb", &Hello{Neighbors: []HelloNeighbor{{Addr: "self", Link: LinkSym}, {Addr: "two", Link: LinkSym}}})
	tcs := [2][]byte{
		(&TC{Orig: "two", TTL: 1, Selectors: []netem.NodeID{"far"}}).AppendTo(nil),
		(&TC{Orig: "two", TTL: 1, Selectors: []netem.NodeID{"other"}}).AppendTo(nil),
	}
	seqOff := 2 + len("two")
	seq := uint16(0)
	flip := func() {
		seq++
		tc := tcs[seq%2]
		binary.BigEndian.PutUint16(tc[seqOff:], seq)
		binary.BigEndian.PutUint16(tc[seqOff+2:], seq) // a new ANSN purges the other selector
		p.handleTC("nb", tc)
		p.recompute()
	}
	flip()
	flip() // both selectors interned, the stores at their high water
	before := p.Stats().Recompute
	if allocs := testing.AllocsPerRun(100, flip); allocs != 0 {
		t.Fatalf("a changed recompute over known nodes allocates %.1f times, want 0", allocs)
	}
	if got := p.Stats().Recompute - before; got != 101 {
		t.Fatalf("%d of 101 changed TCs rebuilt the routes", got)
	}
	_, toFar := p.NextHop("far")
	_, toOther := p.NextHop("other")
	if toFar == toOther {
		t.Fatalf("routes to far (%v) and other (%v) did not follow the last TC", toFar, toOther)
	}
}

// digestHandler piggybacks what an SLP agent does in steady state: a digest's
// worth of bytes, appended to the frame it is handed.
type digestHandler struct{}

func (digestHandler) AppendOutgoing(b []byte, msg routing.Outgoing) []byte {
	return append(b, "digest-size"...)
}
func (digestHandler) Incoming(routing.Incoming) {}

// TestOriginatedFrameAllocBudget is the same pin for the frames a node emits on
// its own beats: a HELLO listing its neighbours and a TC listing its selectors,
// each with a digest-sized extension.
func TestOriginatedFrameAllocBudget(t *testing.T) {
	if testutil.Race {
		t.Skip("allocation counts are not meaningful under -race")
	}
	net := netem.NewNetwork(netem.Config{})
	defer net.Close()
	h, err := net.AddHost("self", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	p := New(h, Config{HelloInterval: 20 * time.Minute, TopologyHold: time.Hour}.withDefaults())
	p.SetPiggyback(digestHandler{})
	for _, nb := range []netem.NodeID{"n1", "n2", "n3", "n4"} {
		p.onHello(nb, &Hello{Neighbors: []HelloNeighbor{{Addr: "self", Link: LinkSym, MPR: true}}})
	}
	for name, emit := range map[string]func(){"HELLO": p.sendHello, "TC": p.sendTC} {
		emit() // sizes the framer and the emission scratch
		if allocs := testing.AllocsPerRun(200, emit); allocs != 0 {
			t.Errorf("a %s allocates %.1f times, want 0", name, allocs)
		}
	}
	if st := p.Stats(); st.HelloSent != 202 || st.TCSent != 202 {
		t.Fatalf("sent %d HELLOs and %d TCs, want 202 of each", st.HelloSent, st.TCSent)
	}
}

// TestForwardedTCAllocBudget pins the relay of a TC at no allocation: header,
// the received body with its TTL decremented and the piggybacked extension are
// written once, into a wire buffer off the free list, which goes back when the
// frame's life ends — at once here, where nobody is in range, so that a
// delivery's cost is not counted with it.
func TestForwardedTCAllocBudget(t *testing.T) {
	if testutil.Race {
		t.Skip("allocation counts are not meaningful under -race")
	}
	net := netem.NewNetwork(netem.Config{})
	defer net.Close()
	h, err := net.AddHost("self", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	p := New(h, Config{TCInterval: time.Nanosecond, TopologyHold: time.Hour}.withDefaults())
	p.SetPiggyback(digestHandler{})
	// n1 selects this node as its MPR, so its TCs are ours to relay.
	p.onHello("n1", &Hello{Neighbors: []HelloNeighbor{{Addr: "self", Link: LinkSym, MPR: true}}})
	m := &TC{Orig: "orig", Seq: 0, ANSN: 7, TTL: 5,
		Selectors: []netem.NodeID{"a", "b", "c"}}
	body := m.AppendTo(nil)
	seqOff := 2 + len(m.Orig)
	seq := m.Seq
	relay := func() {
		seq++
		binary.BigEndian.PutUint16(body[seqOff:], seq)
		p.handleTC("n1", body)
	}
	relay() // installs edges, interns all IDs, sizes the framer
	fwd := p.Stats().TCFwd
	if allocs := testing.AllocsPerRun(200, relay); allocs != 0 {
		t.Fatalf("relaying a TC allocates %.1f times, want 0", allocs)
	}
	if got := p.Stats().TCFwd - fwd; got != 201 {
		t.Fatalf("relayed %d of 201 TCs", got)
	}
	if body[seqOff+4] != 5 {
		t.Fatal("the relay decremented the TTL in the received bytes, not in its frame")
	}
}
