package slp

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/routing"
)

// newMesh builds n unstarted piggyback agents on one fake clock, hosts
// "m.0".."m.<n-1>". Nothing connects them: a test hands one agent's Outgoing
// to another's Incoming itself (say), so every delivery, loss and ordering is
// the test's own.
func newMesh(t *testing.T, n int) ([]*Agent, *clock.Fake) {
	t.Helper()
	fc := clock.NewFake(time.Unix(2_000_000, 0))
	net := netem.NewNetwork(netem.Config{Clock: fc})
	t.Cleanup(net.Close)
	agents := make([]*Agent, n)
	for i := range agents {
		h, err := net.AddHost(netem.NodeName("m", i), netem.Position{X: float64(50 * i)})
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = NewAgent(h, Config{})
	}
	return agents, fc
}

const meshBudget = 1200

// say broadcasts one routing message's worth of from's gossip to each of to
// and returns what it carried.
func say(t *testing.T, from *Agent, to ...*Agent) *Payload {
	t.Helper()
	ext := from.Outgoing(routing.Outgoing{Budget: meshBudget})
	if len(ext) > meshBudget {
		t.Fatalf("extension of %d bytes over budget %d", len(ext), meshBudget)
	}
	p, err := ParsePayload(ext)
	if err != nil {
		t.Fatalf("%s emitted an unparseable extension: %v", from.host.ID(), err)
	}
	if p.Digest == nil {
		t.Fatalf("%s emitted an extension without a digest", from.host.ID())
	}
	for _, a := range to {
		a.Incoming(routing.Incoming{From: from.host.ID(), Ext: ext})
	}
	return p
}

func registerN(t *testing.T, a *Agent, prefix string, n int) {
	t.Helper()
	for i := range n {
		if err := a.Register(Service{
			Type: "sip", Key: fmt.Sprintf("%s%02d@voicehoc.ch", prefix, i),
			URL: ServiceURL("sip", fmt.Sprintf("%s:%d", a.host.ID(), 5060+i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// converge lets every agent talk to every other until a full round carries
// no advert, and checks that they then agree.
func converge(t *testing.T, agents ...*Agent) {
	t.Helper()
	for round := 0; ; round++ {
		if round == 100 {
			t.Fatal("gossip still carrying adverts after 100 rounds")
		}
		quiet := true
		for i, a := range agents {
			others := append(slices.Clone(agents[:i]), agents[i+1:]...)
			if len(say(t, a, others...).Adverts) > 0 {
				quiet = false
			}
		}
		if quiet {
			break
		}
	}
	now := agents[0].clk.Now()
	for _, a := range agents[1:] {
		if got, want := a.cache.digest(now), agents[0].cache.digest(now); got != want {
			t.Fatalf("%s settled on digest %+v, %s on %+v", a.host.ID(), got, agents[0].host.ID(), want)
		}
	}
}

func keySet(a *Agent) []string {
	var out []string
	for _, svc := range a.AppendServices(nil, "") {
		out = append(out, svc.Type+"/"+svc.Key+"@"+string(svc.Origin))
	}
	slices.Sort(out)
	return out
}

// (a) Once neighbours agree, a routing message costs the digest and nothing
// else, whatever the size of the table.
func TestGossipSteadyStateConstant(t *testing.T) {
	for _, n := range []int{16, 64} {
		agents, fc := newMesh(t, 3)
		registerN(t, agents[0], "u", n)
		converge(t, agents...)
		if got := len(agents[2].AppendServices(nil, "sip")); got != n {
			t.Fatalf("%d services: neighbour holds %d after converging", n, got)
		}
		for step := 0; step < 50; step++ {
			fc.Sleep(100 * time.Millisecond)
			for i, a := range agents {
				ext := a.Outgoing(routing.Outgoing{Budget: meshBudget})
				if len(ext) != digestSize {
					t.Fatalf("%d services, step %d: steady-state extension is %d bytes, want the %d of a digest", n, step, len(ext), digestSize)
				}
				for j, b := range agents {
					if j != i {
						b.Incoming(routing.Incoming{From: a.host.ID(), Ext: ext})
					}
				}
			}
		}
		if got := agents[1].Stats().AdvertsAccepted; got != int64(n) {
			t.Fatalf("%d services: %d adverts accepted, want each exactly once", n, got)
		}
	}
}

// (b) A delta every copy of which one neighbour lost is repaired by the next
// exchange of digests, and the neighbours that had it stay quiet.
func TestGossipRepairsLostDelta(t *testing.T) {
	agents, fc := newMesh(t, 3)
	a, b, c := agents[0], agents[1], agents[2]
	registerN(t, a, "u", 8)
	converge(t, a, b, c)
	fc.Sleep(5 * time.Second)

	registerN(t, a, "late", 1)
	for range sendsPerChange {
		if p := say(t, a, c); len(p.Adverts) != 1 { // b hears neither copy
			t.Fatalf("delta carried %d adverts, want the new registration alone", len(p.Adverts))
		}
	}
	if p := say(t, a, c); len(p.Adverts) != 0 {
		t.Fatalf("registration still on the air after %d broadcasts: %+v", sendsPerChange, p.Adverts)
	}
	if _, ok := b.LookupCached("sip", "late00@voicehoc.ch"); ok {
		t.Fatal("b learned a delta it never heard")
	}

	for range sendsPerChange {
		say(t, c, a) // c passes the news on in its turn; b is still deaf
	}
	say(t, b, a)            // b's digest tells a they differ
	pass := say(t, a, b, c) // a answers with its table
	if len(pass.Adverts) != 9 {
		t.Fatalf("resync pass carried %d adverts, want the table of 9", len(pass.Adverts))
	}
	if _, ok := b.LookupCached("sip", "late00@voicehoc.ch"); !ok {
		t.Fatal("lost delta not repaired by the digest exchange")
	}
	// c knew everything in the pass: equal-seq copies re-arm nothing.
	if p := say(t, c, a, b); len(p.Adverts) != 0 {
		t.Fatalf("a bystander re-gossiped %d adverts it already held: %+v", len(p.Adverts), p.Adverts)
	}
	converge(t, a, b, c)
}

// (c) A node that joins, or restarts, with an empty table holds the full set
// after one pass of one neighbour.
func TestGossipJoinerCatchesUp(t *testing.T) {
	agents, fc := newMesh(t, 3)
	a, b, joiner := agents[0], agents[1], agents[2]
	registerN(t, a, "u", 12)
	converge(t, a, b)
	fc.Sleep(5 * time.Second)

	say(t, joiner, b) // the joiner's first HELLO: an empty digest
	if p := say(t, b, joiner); len(p.Adverts) != 12 {
		t.Fatalf("neighbour's pass carried %d adverts, want 12", len(p.Adverts))
	}
	if got, want := keySet(joiner), keySet(b); !slices.Equal(got, want) {
		t.Fatalf("joiner holds %v, want %v", got, want)
	}
	// What the joiner learned is news as far as it can tell, so it passes it
	// on; b knows it all and must not answer in kind.
	converge(t, joiner, b)
	if got := b.Stats().AdvertsAccepted; got != 12 {
		t.Fatalf("b accepted %d adverts, want only the original 12", got)
	}
}

// (d) Two agents that can never agree cost at most one table pass a second
// each.
func TestGossipResyncRateLimit(t *testing.T) {
	agents, fc := newMesh(t, 2)
	a, b := agents[0], agents[1]
	registerN(t, a, "u", 10)
	converge(t, a, b)

	const seconds, step = 5, 50 * time.Millisecond
	const victim = "u03@voicehoc.ch"
	var sentA, sentB, repaired int
	for range seconds * int(time.Second/step) {
		fc.Sleep(step)
		b.Evict("sip", victim)
		sentB += len(say(t, b, a).Adverts)
		sentA += len(say(t, a, b).Adverts)
		if _, ok := b.LookupCached("sip", victim); ok {
			repaired++
		}
	}
	if repaired < seconds-1 {
		t.Fatalf("evicted entry came back %d times in %d s, want about one a second", repaired, seconds)
	}
	if max := (seconds + 1) * 10; sentA > max {
		t.Fatalf("a sent %d adverts in %d s against a neighbour that never agrees, want at most %d (one pass of 10 a second)", sentA, seconds, max)
	}
	// b's table is the 9 it keeps, plus the victim's two broadcasts as news
	// whenever it comes back.
	if max := (seconds + 1) * (9 + sendsPerChange); sentB > max {
		t.Fatalf("b sent %d adverts in %d s, want at most %d", sentB, seconds, max)
	}
}

// (e) A node that has never heard a neighbour keeps sending its whole table,
// and a node fed that extension resolves every key. bench/layers.go driveSLP
// relies on exactly this.
func TestGossipIsolatedSourceFullTable(t *testing.T) {
	agents, fc := newMesh(t, 2)
	source, sink := agents[0], agents[1]
	registerN(t, source, "u", 16)
	var first []byte
	for i := range 6 {
		fc.Sleep(10 * time.Millisecond)
		ext := source.Outgoing(routing.Outgoing{Proto: routing.ProtoOLSR, Budget: netem.MTU})
		p, err := ParsePayload(ext)
		if err != nil || len(p.Adverts) != 16 {
			t.Fatalf("call %d: %d adverts (%v), want the full table of 16 every time", i, len(p.Adverts), err)
		}
		if i == 0 {
			first = ext
		}
	}
	sink.Incoming(routing.Incoming{From: source.host.ID(), Proto: routing.ProtoOLSR, Ext: first})
	for i := range 16 {
		if _, err := sink.Lookup("sip", fmt.Sprintf("u%02d@voicehoc.ch", i), time.Second); err != nil {
			t.Fatalf("sink cannot resolve key %d: %v", i, err)
		}
	}
}

// TestAdvertLifetimeSurvivesHops pins the per-hop decay fix: a 30 s advert
// relayed down a chain of 40 agents, a few milliseconds a hop, arrives with
// all but a tenth of a second a hop of its life left. With whole seconds on
// the wire it lost a second a hop and never got past the thirtieth.
func TestAdvertLifetimeSurvivesHops(t *testing.T) {
	const hops, perHop = 39, 7 * time.Millisecond
	agents, fc := newMesh(t, hops+1)
	registerN(t, agents[0], "u", 1)
	for i := range hops {
		fc.Sleep(perHop)
		say(t, agents[i], agents[i+1])
	}
	svc, ok := agents[hops].LookupCached("sip", "u00@voicehoc.ch")
	if !ok {
		t.Fatalf("advert did not cross %d hops", hops)
	}
	left := svc.Expires.Sub(fc.Now())
	if floor := 30*time.Second - hops*(perHop+ttlUnit); left < floor || left > 30*time.Second {
		t.Fatalf("advert has %v left after %d hops, want between %v and 30s", left, hops, floor)
	}
}

// TestGossipCanonicalBytes: the same state encodes to the same bytes however
// it was built up — attributes, local registrations and queries all go out
// in key order — and what an agent emits is what Marshal makes of its parse.
// Relayed queries ride the first two broadcasts after they arrive and nothing
// after those, and no message to one neighbour.
func TestGossipCanonicalBytes(t *testing.T) {
	broadcast := routing.Outgoing{Dst: netem.Broadcast, Budget: netem.MTU}
	build := func(order []int) *Agent {
		net := netem.NewNetwork(netem.Config{Clock: clock.NewFake(time.Unix(3_000_000, 0))})
		t.Cleanup(net.Close)
		h, err := net.AddHost("self", netem.Position{})
		if err != nil {
			t.Fatal(err)
		}
		a := NewAgent(h, Config{})
		for _, i := range order {
			attrs := map[string]string{}
			for _, j := range order {
				attrs[fmt.Sprintf("attr%d", j)] = fmt.Sprint(i * j)
			}
			// Register stamps Seq in call order; pin it so only order differs.
			a.mu.Lock()
			a.seq = uint32(100 + i - 1)
			a.mu.Unlock()
			if err := a.Register(Service{Type: "sip", Key: fmt.Sprintf("k%d", i), URL: "service:sip://self:5060", Attrs: attrs}); err != nil {
				t.Fatal(err)
			}
		}
		// Two broadcasts pay the news, which follows registration order;
		// from the third on each is the key-ordered pass.
		a.Outgoing(broadcast)
		a.Outgoing(broadcast)
		for _, i := range order {
			a.handlePayload(&Payload{Queries: []Query{{Type: "sip", Key: "x", Origin: netem.NodeID(fmt.Sprintf("n%d", 9-i)), ID: uint32(i), Hops: 4}}})
		}
		return a
	}
	x, y := build([]int{0, 1, 2, 3, 4, 5}), build([]int{4, 2, 5, 0, 3, 1})
	check := func(what string, msg routing.Outgoing, queries int) {
		t.Helper()
		ex, ey := x.Outgoing(msg), y.Outgoing(msg)
		if !bytes.Equal(ex, ey) {
			t.Fatalf("%s: same state, different bytes:\n%x\n%x", what, ex, ey)
		}
		p, err := ParsePayload(ex)
		if err != nil || len(p.Adverts) != 6 || len(p.Queries) != queries {
			t.Fatalf("%s: %v, %d adverts, %d queries; want 6 and %d", what, err, len(p.Adverts), len(p.Queries), queries)
		}
		if !bytes.Equal(p.Marshal(), ex) {
			t.Fatalf("%s: Marshal of the parsed extension differs from the extension", what)
		}
	}
	check("first broadcast", broadcast, 6)
	x.Outgoing(broadcast)
	y.Outgoing(broadcast)
	check("third broadcast", broadcast, 0)
	check("unicast", routing.Outgoing{Dst: "10.0.0.9", Budget: netem.MTU}, 0)
}

// TestMulticastCountsAdverts: flood frames go through the same install and
// seen-check as every other payload, so multicast mode counts what it
// accepts and handles each query once.
func TestMulticastCountsAdverts(t *testing.T) {
	a, _ := newShardAgent(t, Config{Mode: ModeMulticast})
	frame := netem.Frame{Src: "10.0.0.9", Kind: netem.KindService, Payload: (&Payload{
		Adverts: advertFor("carol@voicehoc.ch", 1).Adverts,
		Queries: []Query{{Type: "sip", Key: "carol@voicehoc.ch", Origin: "10.0.0.7", ID: 1, Hops: 4}},
	}).Marshal()}
	a.onServiceFrame(frame)
	a.onServiceFrame(frame)
	if s := a.Stats(); s.AdvertsAccepted != 1 || s.QueriesAnswered != 1 {
		t.Fatalf("stats after two copies of one flood = %+v, want one advert accepted and one query answered", s)
	}
}

// TestIncomingKnownAdvertsAllocs pins the receive path's steady state: a
// payload of 16 adverts the table already holds at the same Seq is probed
// off the wire bytes and allocates nothing.
func TestIncomingKnownAdvertsAllocs(t *testing.T) {
	agents, _ := newMesh(t, 2)
	source, sink := agents[0], agents[1]
	registerN(t, source, "u", 16)
	in := routing.Incoming{From: source.host.ID(), Ext: source.Outgoing(routing.Outgoing{Budget: netem.MTU})}
	sink.Incoming(in)
	if got := len(sink.AppendServices(nil, "sip")); got != 16 {
		t.Fatalf("sink holds %d services, want 16", got)
	}
	if allocs := testing.AllocsPerRun(200, func() { sink.Incoming(in) }); allocs > 0 {
		t.Fatalf("Incoming of 16 known adverts: %.1f allocs, want none", allocs)
	}
}

// (f) TestGossipConvergenceProperty: whatever a seeded FaultPlan does to a
// 3×3 grid — nodes leaving for good, nodes restarting with an empty table,
// partitions that heal, lossy spells — once it is over, every node of a
// connected component holds the same (type, key, origin) set, namely the
// registrations of that component's live nodes, and sends the same digest.
func TestGossipConvergenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 32; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runConvergence(t, seed) })
	}
}

type gridNode struct {
	host  *netem.Host
	agent *Agent
	up    bool
}

func runConvergence(t *testing.T, seed int64) {
	const (
		side      = 3
		step      = 100 * time.Millisecond
		storm     = 60 * time.Second // the plan's faults fall inside this
		quiet     = 45 * time.Second // then AdvertTTL and a few resyncs of peace
		contested = "roamer@voicehoc.ch"
	)
	fc := clock.NewFake(time.Unix(4_000_000, 0))
	net := netem.NewNetwork(netem.Config{Clock: fc, Seed: seed})
	t.Cleanup(net.Close)
	hosts, err := netem.Grid(net, side, side, 80, "g")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	nodes := make([]*gridNode, len(hosts))
	// boot gives node i a fresh agent with an empty table and its own
	// registrations: two keys of its own and, on the corners, one key that
	// every corner claims. It runs in a fault task too, hence Error.
	boot := func(i int) {
		n := nodes[i]
		n.agent, n.up = NewAgent(n.host, Config{}), true
		keys := []string{fmt.Sprintf("n%d-00@voicehoc.ch", i), fmt.Sprintf("n%d-01@voicehoc.ch", i)}
		if claimsContested(i) {
			keys = append(keys, contested)
		}
		for _, key := range keys {
			if err := n.agent.Register(Service{Type: "sip", Key: key, URL: ServiceURL("sip", string(n.host.ID())+":5060")}); err != nil {
				t.Error(err)
			}
		}
	}
	ids := make([]netem.NodeID, len(hosts))
	for i, h := range hosts {
		nodes[i], ids[i] = &gridNode{host: h}, h.ID()
		boot(i)
	}

	// The schedule. Every offset is drawn here and noted, so that the loop
	// below knows how many faults are due at each tick.
	var offsets []time.Duration
	note := func(d time.Duration) time.Duration {
		offsets = append(offsets, d)
		return d
	}
	at := func(lo, hi time.Duration) time.Duration {
		return note(lo + time.Duration(rng.Int63n(int64(hi-lo))))
	}
	loss := 0.0
	plan := netem.NewFaultPlan(net, netem.FaultPlanConfig{Seed: seed})
	// Two nodes leave for good, two others crash and come back empty.
	perm := rng.Perm(len(nodes))
	for _, i := range perm[:2] {
		plan.At(at(5*time.Second, storm), fmt.Sprintf("leave %d", i), func() { nodes[i].up = false })
	}
	for _, i := range perm[2:4] {
		down := at(5*time.Second, storm-10*time.Second)
		plan.At(down, fmt.Sprintf("crash %d", i), func() { nodes[i].up = false })
		plan.At(at(down+time.Second, down+10*time.Second), fmt.Sprintf("restart %d", i), func() { boot(i) })
	}
	// A partition along a row or column boundary, healed later; a lossy
	// spell; some flapping links.
	cut, byRow := 1+rng.Intn(side-1), rng.Intn(2) == 0
	var west, east []netem.NodeID
	for i, id := range ids {
		coord := i % side
		if byRow {
			coord = i / side
		}
		if coord < cut {
			west = append(west, id)
		} else {
			east = append(east, id)
		}
	}
	split := at(5*time.Second, storm-20*time.Second)
	plan.Partition(split, west, east).HealPartition(at(split+5*time.Second, split+20*time.Second), west, east)
	lossy := at(time.Second, storm-15*time.Second)
	plan.At(lossy, "loss 0.3", func() { loss = 0.3 }).At(at(lossy+5*time.Second, lossy+15*time.Second), "loss 0", func() { loss = 0 })
	for range 6 {
		i, down := rng.Intn(len(ids)), time.Second+time.Duration(rng.Int63n(int64(storm-6*time.Second)))
		for _, nb := range hosts[i].Neighbors() {
			plan.CutLink(note(down), ids[i], nb).HealLink(note(down+4*time.Second), ids[i], nb)
		}
	}
	if plan.Len() != len(offsets) {
		t.Fatalf("noted %d offsets for %d events", len(offsets), plan.Len())
	}
	if err := plan.Run(); err != nil {
		t.Fatal(err)
	}
	defer plan.Stop()
	// The plan's faults are tasks on the network's scheduler: when a sleep
	// returns, every fault due by then has been injected.
	refresh := nodes[0].agent.refreshInterval()
	for elapsed := step; elapsed <= storm+quiet; elapsed += step {
		fc.Sleep(step)
		for _, n := range nodes {
			if n.up && elapsed%refresh == 0 {
				n.agent.refreshTick()
			}
		}
		for _, n := range nodes {
			if !n.up {
				continue
			}
			ext := n.agent.Outgoing(routing.Outgoing{Budget: meshBudget})
			heard := false
			for _, nb := range n.host.Neighbors() {
				if peer := nodes[slices.Index(ids, nb)]; peer.up && rng.Float64() >= loss {
					peer.agent.Incoming(routing.Incoming{From: n.host.ID(), Ext: ext})
					heard = true
				}
			}
			// Settled means silent too: well after the last refresh wave a
			// node with anyone to talk to sends its digest and nothing else,
			// so nobody is ping-ponging.
			if heard && elapsed > storm+quiet-2*time.Second && len(ext) != digestSize {
				t.Fatalf("seed %d: node %s still gossiping %d bytes at %v", seed, n.host.ID(), len(ext), elapsed)
			}
		}
	}

	// Components of the live grid, and what each must hold.
	seen := make([]bool, len(nodes))
	for i := range nodes {
		if seen[i] || !nodes[i].up {
			continue
		}
		var comp []int
		for queue := []int{i}; len(queue) > 0; queue = queue[1:] {
			j := queue[0]
			if seen[j] {
				continue
			}
			seen[j] = true
			comp = append(comp, j)
			for _, nb := range nodes[j].host.Neighbors() {
				if k := slices.Index(ids, nb); nodes[k].up && !seen[k] {
					queue = append(queue, k)
				}
			}
		}
		slices.Sort(comp)
		var want []string
		for _, j := range comp {
			for k := range 2 {
				want = append(want, fmt.Sprintf("sip/n%d-%02d@voicehoc.ch@%s", j, k, ids[j]))
			}
		}
		// The contested key goes to the greatest origin among its live claimants.
		for j := len(comp) - 1; j >= 0; j-- {
			if claimsContested(comp[j]) {
				want = append(want, "sip/"+contested+"@"+string(ids[comp[j]]))
				break
			}
		}
		slices.Sort(want)
		ref := nodes[comp[0]].agent
		for _, j := range comp {
			got := keySet(nodes[j].agent)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d: node %d of component %v holds\n%v\nwant\n%v\nplan:\n%v", seed, j, comp, got, want, plan.Log())
			}
			if d, r := nodes[j].agent.cache.digest(fc.Now()), ref.cache.digest(fc.Now()); d != r {
				t.Fatalf("seed %d: node %d sends digest %+v, node %d %+v, over equal sets", seed, j, d, comp[0], r)
			}
		}
	}
}

// claimsContested reports whether node i of the 3×3 grid is a corner.
func claimsContested(i int) bool { return i%2 == 0 && i != 4 }
