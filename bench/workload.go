package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"siphoc"
	"siphoc/internal/netem"
	"siphoc/internal/routing/aodv"
	"siphoc/internal/routing/olsr"
)

const domain = "voicehoc.ch"

// longTTL keeps registrations and provider bindings alive for the whole run,
// so no refresh traffic lands inside one window and not inside the next.
const longTTL = 10 * time.Minute

// workload is one fixed-rate, fixed-count call mix on one topology.
type workload struct {
	name   string
	why    string  // one line, copied into BENCHMARK.json
	rate   float64 // offered calls per second, open loop
	frames int     // 20 ms voice frames each side streams per call
	// build brings up the scenario, its nodes and started phones, and lists
	// the directed pairs calls are drawn from.
	build func(seed int64, opts ...siphoc.ScenarioOption) (*deployment, error)
	// converge blocks until the routing state calls depend on is in place
	// and may record a layer timing it measured on the way.
	converge func(d *deployment) error
}

var workloads = []workload{
	{
		name: "chain_signalling",
		why:  "1-5 hop AODV chain, 40 short calls/s over warm routes: SIP parse/clone and the proxy dominate, RTP is idle",
		rate: 40, frames: 5,
		build: buildChain, converge: coldDiscovery,
	},
	{
		name: "grid_olsr",
		why:  "8x8 OLSR grid, 20 calls/s: proactive routing with SLP piggyback on 64 nodes is the work, the calls are under 5% of it",
		rate: 20, frames: 5,
		build: buildGrid, converge: awaitFullTables,
	},
	{
		name: "voice_media",
		why:  "3x3 OLSR grid with 1% loss and 1 ms jitter, 3 calls/s of 8 s two-way voice: RTP pacer, codec, jitter buffer and the netem data path",
		rate: 3, frames: 400,
		build: buildVoice, converge: awaitFullTables,
	},
	{
		name: "gateway_calls",
		why:  "AODV MANET behind a gateway, 10 calls/s to and from Internet phones: resolver fall-through, tunnel, connection provider and provider tier",
		rate: 10, frames: 5,
		build: buildGateway, converge: awaitAttached,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// endpoint is one phone, the MANET node it sits on (nil for an Internet
// phone) and the dispatcher that hands its incoming calls out by Call-ID.
type endpoint struct {
	phone *siphoc.Phone
	node  *siphoc.Node
	inbox *inbox
}

// pair is one directed caller→callee choice.
type pair struct {
	caller, callee *endpoint
	// hops is the MANET path length between the two phones; for a call that
	// crosses the gateway, between the MANET phone and the gateway.
	hops    int
	inbound bool // Internet → MANET
}

type deployment struct {
	sc       *siphoc.Scenario
	nodes    []*siphoc.Node
	ends     []*endpoint
	pairs    []pair
	provider *siphoc.Provider // gateway_calls only
	// own holds layer timings the workload's own set-up measured; the
	// reference scenarios of layers.go supply them on the other workloads.
	own map[string]float64
}

// newDeployment starts an empty scenario from the options given.
func newDeployment(opts ...siphoc.ScenarioOption) (*deployment, error) {
	sc, err := siphoc.NewScenarioWith(opts...)
	if err != nil {
		return nil, err
	}
	return &deployment{sc: sc, own: map[string]float64{}}, nil
}

func (d *deployment) close() {
	for _, e := range d.ends {
		e.inbox.stop()
	}
	d.sc.Close()
}

func (d *deployment) addPhone(node *siphoc.Node, user string) (*endpoint, error) {
	ph, err := node.NewPhoneWith(siphoc.PhoneConfig{User: user, Domain: domain, RegisterTTL: longTTL})
	if err != nil {
		return nil, fmt.Errorf("phone %s on %s: %w", user, node.ID(), err)
	}
	e := &endpoint{phone: ph, node: node, inbox: newInbox(ph)}
	d.ends = append(d.ends, e)
	return e, nil
}

// benchOLSR is the OLSR timing both grid workloads run: fast enough that a
// grid converges in seconds, fisheye-scoped so 64 nodes stay well inside one
// core.
func benchOLSR() *olsr.Config {
	return &olsr.Config{
		HelloInterval:   200 * time.Millisecond,
		TCInterval:      500 * time.Millisecond,
		MaxTTL:          64,
		RouteWait:       2 * time.Minute,
		Fisheye:         true,
		FisheyeNearTTL:  8,
		FisheyeFarEvery: 4,
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// buildChain: six AODV nodes in a line, a phone on each, all 30 directed
// pairs (1–5 hops).
func buildChain(seed int64, opts ...siphoc.ScenarioOption) (*deployment, error) {
	d, err := newDeployment(append(opts, siphoc.WithRadio(netem.Config{Seed: seed}))...)
	if err != nil {
		return nil, err
	}
	if d.nodes, err = d.sc.Chain(6, 90); err != nil {
		d.close()
		return nil, err
	}
	for i, n := range d.nodes {
		if _, err := d.addPhone(n, fmt.Sprintf("u%d", i+1)); err != nil {
			d.close()
			return nil, err
		}
	}
	for i, a := range d.ends {
		for j, b := range d.ends {
			if i != j {
				d.pairs = append(d.pairs, pair{caller: a, callee: b, hops: abs(i - j)})
			}
		}
	}
	return d, nil
}

// buildOLSRGrid brings up a side×side OLSR grid at 80 m spacing (4-neighbour
// connectivity at the default 100 m range, so hops are Manhattan distance),
// puts phones on the nodes at the given grid indices and lists every directed
// pair whose distance lies in [minHops, maxHops].
func buildOLSRGrid(side int, radio netem.Config, phoneAt []int, minHops, maxHops int,
	nodeOpts []siphoc.NodeOption, opts ...siphoc.ScenarioOption) (*deployment, error) {
	d, err := newDeployment(append(opts, siphoc.WithRadio(radio), siphoc.WithOLSR(benchOLSR()))...)
	if err != nil {
		return nil, err
	}
	if d.nodes, err = d.sc.Grid(side, side, 80, nodeOpts...); err != nil {
		d.close()
		return nil, err
	}
	for i, at := range phoneAt {
		if _, err := d.addPhone(d.nodes[at], fmt.Sprintf("u%d", i+1)); err != nil {
			d.close()
			return nil, err
		}
	}
	for i, a := range d.ends {
		for j, b := range d.ends {
			hops := gridHops(side, phoneAt[i], phoneAt[j])
			if i != j && hops >= minHops && hops <= maxHops {
				d.pairs = append(d.pairs, pair{caller: a, callee: b, hops: hops})
			}
		}
	}
	return d, nil
}

// gridHops is the hop count between two indices of a side×side grid with
// 4-neighbour connectivity.
func gridHops(side, a, b int) int {
	return abs(a/side-b/side) + abs(a%side-b%side)
}

// buildGrid: 8×8 OLSR grid without connection providers, 16 phones, pairs
// 2–6 hops apart (inside the SLP query radius of 8). The grid is cut into
// sixteen 2×2 blocks and the seed picks one node of each for a phone: every
// seed moves the phones, none changes how densely they are spread, so the
// background traffic per call barely depends on the seed.
func buildGrid(seed int64, opts ...siphoc.ScenarioOption) (*deployment, error) {
	rng := rand.New(rand.NewSource(seed))
	var phoneAt []int
	for block := range 16 {
		row, col := 2*(block/4)+rng.Intn(2), 2*(block%4)+rng.Intn(2)
		phoneAt = append(phoneAt, 8*row+col)
	}
	return buildOLSRGrid(8, netem.Config{Seed: seed}, phoneAt, 2, 6,
		[]siphoc.NodeOption{siphoc.WithoutConnectionProvider()}, opts...)
}

// buildVoice: 3×3 OLSR grid on a lossy, jittery radio, a phone on every node,
// the 68 directed pairs 1–3 hops apart. An odd number of hop counts puts the
// median set-up delay inside the middle one rather than in the gap between
// two, where it would jump from run to run.
func buildVoice(seed int64, opts ...siphoc.ScenarioOption) (*deployment, error) {
	radio := netem.Config{Seed: seed, LossRate: 0.01, DelayJitter: time.Millisecond}
	return buildOLSRGrid(3, radio, []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, 1, 3, nil, opts...)
}

// buildGateway: a four-node AODV MANET behind one gateway, one provider, a
// MANET phone on each of the other three nodes and three Internet phones;
// every MANET phone is paired with every Internet phone both ways.
//
// The MANET is a Y: the gateway, one node next to it, and two nodes a second
// hop out that hear only that middle node. No node is three hops from the
// gateway, on purpose. AODV routes live 10 s whether used or not, and when a
// node three or more hops out rediscovers the gateway, a relay that hears the
// request echoed by the next relay can swap its one-hop route to the
// requester for a three-hop one through that relay; reply and data then
// bounce between the two until a HELLO repairs it 50 ms later, a tunnel ping
// is lost, and the connection provider drops its only gateway for 5 s (see
// README.md, "What the benchmark found"). Two hops out nobody echoes.
func buildGateway(seed int64, opts ...siphoc.ScenarioOption) (*deployment, error) {
	d, err := newDeployment(append(opts, siphoc.WithRadio(netem.Config{Seed: seed}), siphoc.WithInternet(5*time.Millisecond))...)
	if err != nil {
		return nil, err
	}
	sc := d.sc
	fail := func(err error) (*deployment, error) {
		d.close()
		return nil, err
	}
	if d.provider, err = sc.AddProvider(siphoc.ProviderConfig{Domain: domain, BindingTTL: longTTL}); err != nil {
		return fail(err)
	}
	// 100 m radio range: the arms are 92 m from the middle node, 171 m from
	// the gateway and 120 m from each other.
	layout := []struct {
		pos  siphoc.Position
		hops int // to the gateway
	}{
		{siphoc.Position{}, 0},
		{siphoc.Position{X: 90}, 1},
		{siphoc.Position{X: 160, Y: 60}, 2},
		{siphoc.Position{X: 160, Y: -60}, 2},
	}
	var manet, inet []*endpoint
	for i, at := range layout {
		var nodeOpts []siphoc.NodeOption
		if at.hops == 0 {
			nodeOpts = append(nodeOpts, siphoc.WithGateway())
		}
		n, err := sc.AddNode(netem.NodeName("10.0.0", i+1), at.pos, nodeOpts...)
		if err != nil {
			return fail(err)
		}
		d.nodes = append(d.nodes, n)
		if at.hops == 0 {
			continue
		}
		user := fmt.Sprintf("m%d", i)
		d.provider.AddAccount(user)
		e, err := d.addPhone(n, user)
		if err != nil {
			return fail(err)
		}
		manet = append(manet, e)
	}
	for i := range 3 {
		user := fmt.Sprintf("i%d", i+1)
		d.provider.AddAccount(user)
		ph, err := sc.AddInternetPhone(user, domain, siphoc.NodeID("ua."+user+".net"))
		if err != nil {
			return fail(err)
		}
		e := &endpoint{phone: ph, inbox: newInbox(ph)}
		d.ends = append(d.ends, e)
		inet = append(inet, e)
	}
	for i, m := range manet {
		hops := layout[i+1].hops
		for _, p := range inet {
			d.pairs = append(d.pairs,
				pair{caller: m, callee: p, hops: hops},
				pair{caller: p, callee: m, hops: hops, inbound: true})
		}
	}
	return d, nil
}

// coldDiscovery times the first AODV route request across the whole chain,
// before any traffic has installed a route.
func coldDiscovery(d *deployment) error {
	first, last := d.nodes[0], d.nodes[len(d.nodes)-1]
	if _, ok := first.Routing().(*aodv.Protocol); !ok {
		return fmt.Errorf("node %s does not run AODV", first.ID())
	}
	found := make(chan bool, 1)
	start := time.Now()
	first.Routing().RequestRoute(last.ID(), func(ok bool) { found <- ok })
	if !<-found {
		return fmt.Errorf("no route %s -> %s", first.ID(), last.ID())
	}
	d.own["aodv.cold_discovery_ms"] = ms(time.Since(start))
	return nil
}

// awaitFullTables waits until every node routes to every other node: OLSR
// has converged. A caller's own next hop is not enough, since signalling and
// voice are forwarded hop by hop and fisheye scoping lets distant relays learn
// the topology seconds after the neighbourhood has.
func awaitFullTables(d *deployment) error {
	start := time.Now()
	deadline := start.Add(60 * time.Second)
	for _, n := range d.nodes {
		for len(n.Routing().Routes()) < len(d.nodes)-1 {
			if time.Now().After(deadline) {
				return fmt.Errorf("%s routes to %d of %d nodes after 60 s", n.ID(), len(n.Routing().Routes()), len(d.nodes)-1)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	d.own["olsr.convergence_ms"] = ms(time.Since(start))
	return nil
}

// awaitAttached waits until every non-gateway node has its tunnel up.
func awaitAttached(d *deployment) error {
	var slowest time.Duration
	for _, n := range d.nodes {
		if err := d.sc.WaitAttached(n, 30*time.Second); err != nil {
			return err
		}
		if cp := n.ConnectionProvider(); cp != nil {
			slowest = max(slowest, cp.Stats().LastAttachDur)
		}
	}
	d.own["core.connp.attach_ms"] = ms(slowest)
	return nil
}

// plan is the seeded call sequence of one window: plan[i] indexes
// deployment.pairs for the call due at start + i/rate. The mix is the same
// for every seed — on a workload with inbound pairs a third of the calls are
// inbound, and within a direction the calls are spread evenly over the hop
// counts the topology offers — so that runs with different seeds measure the
// same work; the seed picks the pair at each distance and the order.
func plan(pairs []pair, calls int, seed int64) []int {
	// classes[0] are the hop counts outbound pairs come in, classes[1] the
	// inbound ones, both ascending; members lists the pairs of each.
	type class struct {
		inbound bool
		hops    int
	}
	members := map[class][]int{}
	var classes [2][]class
	for i, p := range pairs {
		c := class{p.inbound, p.hops}
		if members[c] == nil {
			dir := 0
			if p.inbound {
				dir = 1
			}
			classes[dir] = append(classes[dir], c)
		}
		members[c] = append(members[c], i)
	}
	for _, cs := range classes {
		sort.Slice(cs, func(i, j int) bool { return cs[i].hops < cs[j].hops })
	}
	rng := rand.New(rand.NewSource(seed))
	seq := make([]int, calls)
	var drawn [2]int
	for i := range seq {
		dir := 0
		if len(classes[1]) > 0 && i%3 == 2 {
			dir = 1
		}
		c := classes[dir][drawn[dir]%len(classes[dir])]
		drawn[dir]++
		seq[i] = members[c][rng.Intn(len(members[c]))]
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}
