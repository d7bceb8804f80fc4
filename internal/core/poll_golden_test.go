package core

import (
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/internet"
	"siphoc/internal/netem"
	"siphoc/internal/routing"
	"siphoc/internal/routing/olsr"
	"siphoc/internal/slp"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// pollGoldenRun records every frame of runPollGrid's run. Each node's line is
// its frame count and an order-free sum of a hash of every frame it sent: the
// instant, the destination, the kind and the payload bytes.
func pollGoldenRun(t *testing.T, span time.Duration) map[netem.NodeID]string {
	t.Helper()
	type tally struct {
		frames int
		sum    uint64
	}
	var mu sync.Mutex
	seen := make(map[netem.NodeID]*tally)
	runPollGrid(t, span, func(f netem.Frame, at time.Duration) {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%s|%d|", at, f.Dst, f.Kind)
		h.Write(f.Payload)
		mu.Lock()
		defer mu.Unlock()
		tl := seen[f.Src]
		if tl == nil {
			tl = &tally{}
			seen[f.Src] = tl
		}
		tl.frames++
		tl.sum += h.Sum64()
	})
	mu.Lock()
	defer mu.Unlock()
	out := make(map[netem.NodeID]string, len(seen))
	for id, tl := range seen {
		out[id] = fmt.Sprintf("frames=%d sum=%016x", tl.frames, tl.sum)
	}
	return out
}

// pollGrid is an isolated 3×3 OLSR grid whose nodes all run a Connection
// Provider — the paper's main setting: every node polls for a gateway nobody
// offers — on a fake clock driving a one-shard network. The clock stops at
// every deadline, so every task runs exactly at its due time and the run is
// one total order. Everything it starts is stopped when the test ends.
type pollGrid struct {
	fake      *clock.Fake
	net       *netem.Network
	cfg       ConnProviderConfig
	hosts     []*netem.Host
	protos    []*olsr.Protocol
	agents    []*slp.Agent
	providers []*ConnectionProvider
}

// newPollGrid builds the grid and hands tap every frame on the air, with the
// time since the start. Nothing is sent before the test sleeps.
func newPollGrid(t *testing.T, tap func(f netem.Frame, at time.Duration)) *pollGrid {
	t.Helper()
	g := &pollGrid{
		fake: clock.NewFake(time.Unix(2_000_000, 0)),
		// The scenario's defaults for a full node (see siphoc's node.go).
		cfg: ConnProviderConfig{
			ProbeInterval: 250 * time.Millisecond,
			LookupTimeout: 200 * time.Millisecond,
			AckTimeout:    time.Second,
		},
	}
	start := g.fake.Now()
	g.net = netem.NewNetwork(netem.Config{Range: 100, BaseDelay: time.Millisecond, Clock: g.fake, Shards: 1, Seed: 7})
	g.net.SetTap(func(f netem.Frame) { tap(f, g.fake.Now().Sub(start)) })
	t.Cleanup(func() {
		for _, p := range g.providers {
			p.Stop()
		}
		for _, a := range g.agents {
			a.Stop()
		}
		for _, p := range g.protos {
			p.Stop()
		}
		g.net.Close()
	})
	// One node at a time, so that the tasks each start queues are queued in
	// the same order on every run.
	for i := range 9 {
		g.add(t, netem.NodeName("10.0.0", i+1), netem.Position{X: float64(i%3) * 80, Y: float64(i/3) * 80})
		cp := NewConnectionProvider(g.hosts[i], g.agents[i], g.cfg)
		if err := cp.Start(); err != nil {
			t.Fatal(err)
		}
		g.providers = append(g.providers, cp)
	}
	return g
}

// add brings up a node running OLSR and an SLP agent.
func (g *pollGrid) add(t *testing.T, id netem.NodeID, pos netem.Position) {
	t.Helper()
	h, err := g.net.AddHost(id, pos)
	if err != nil {
		t.Fatal(err)
	}
	proto := olsr.New(h, olsr.SimConfig())
	agent := slp.NewAgent(h, slp.Config{})
	agent.AttachRouting(proto)
	if err := proto.Start(); err != nil {
		t.Fatal(err)
	}
	g.protos = append(g.protos, proto)
	if err := agent.Start(); err != nil {
		t.Fatal(err)
	}
	g.hosts = append(g.hosts, h)
	g.agents = append(g.agents, agent)
}

// scheduledQueries is how many wildcard queries a provider that never finds a
// gateway sends in the first d after Start: every round is followed by
// ProbeInterval, and a round that queries (queryRound) first waits
// LookupTimeout for its answer.
func scheduledQueries(cfg ConnProviderConfig, d time.Duration) (n int64) {
	var at time.Duration
	for round := 0; at < d; round++ {
		if queryRound(round) {
			n++
			at += cfg.LookupTimeout
		}
		at += cfg.ProbeInterval
	}
	return n
}

// runPollGrid runs a pollGrid for span of virtual time and checks that every
// node has polled, with each wildcard query of queryRound's schedule sent and
// relayed, and returns the agents' counters.
func runPollGrid(t *testing.T, span time.Duration, tap func(f netem.Frame, at time.Duration)) []slp.AgentStats {
	t.Helper()
	g := newPollGrid(t, tap)
	g.fake.Sleep(span)
	want := scheduledQueries(g.cfg, span)
	stats := make([]slp.AgentStats, len(g.agents))
	for i, a := range g.agents {
		if stats[i] = a.Stats(); stats[i].Lookups != want || stats[i].QueriesRelayed == 0 {
			t.Fatalf("agent stats %+v: the grid is not polling %d queries in %v", stats[i], want, span)
		}
	}
	return stats
}

// queriesOn returns the SLP queries a routing frame carries: none for any
// other frame.
func queriesOn(t *testing.T, f netem.Frame) []slp.Query {
	var env routing.Envelope
	if f.Kind != netem.KindRouting || routing.ParseEnvelopeInto(&env, f.Payload) != nil || env.Ext == nil {
		return nil
	}
	p, err := slp.ParsePayload(env.Ext)
	if err != nil {
		t.Errorf("frame from %s: %v", f.Src, err)
		return nil
	}
	return p.Queries
}

// TestIdlePollGolden pins the bytes and instants of an idle MANET's
// connectivity plane: the HELLOs and TCs of a 3×3 OLSR grid carrying the SLP
// digest and the wildcard gateway queries every node's Connection Provider
// issues on queryRound's schedule and relays on two broadcasts each, for three
// virtual seconds (testdata/poll3x3_olsr.golden). A change to how the poll is
// computed must not move a byte or an instant. A deliberate change of what
// goes on the air re-records it with -update.
func TestIdlePollGolden(t *testing.T) {
	const path = "testdata/poll3x3_olsr.golden"
	got := pollGoldenRun(t, 3*time.Second)
	ids := make([]string, 0, len(got))
	for id := range got {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	if *updateGolden {
		var b strings.Builder
		for _, id := range ids {
			fmt.Fprintf(&b, "%s\t%s\n", id, got[netem.NodeID(id)])
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[netem.NodeID]string)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		id, fingerprint, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[netem.NodeID(id)] = fingerprint
	}
	for id, w := range want {
		if g := got[id]; g != w {
			t.Errorf("node %s diverges:\n  golden: %s\n  got:    %s", id, w, g)
		}
	}
	if len(got) != len(want) {
		t.Errorf("node count differs: golden %d, got %d", len(want), len(got))
	}
}

// TestRelayedQueryRidesTwoBroadcasts: in the idle poll's grid a relay carries
// each foreign query on at most two of its broadcasts (the debt a changed
// advert is owed, slp's sendsPerChange) and on no routing frame to one
// neighbour. Only the origin's own query rides while its lookup waits.
func TestRelayedQueryRidesTwoBroadcasts(t *testing.T) {
	type relayedCopy struct {
		relay, origin netem.NodeID
		id            uint32
	}
	var mu sync.Mutex
	broadcasts := make(map[relayedCopy]int)
	var unicasts []relayedCopy
	runPollGrid(t, 3*time.Second, func(f netem.Frame, _ time.Duration) {
		queries := queriesOn(t, f)
		mu.Lock()
		defer mu.Unlock()
		for _, q := range queries {
			if q.Origin == f.Src {
				continue
			}
			c := relayedCopy{f.Src, q.Origin, q.ID}
			if f.Dst != netem.Broadcast {
				unicasts = append(unicasts, c)
				continue
			}
			broadcasts[c]++
		}
	})
	mu.Lock()
	defer mu.Unlock()
	twice := 0
	for c, n := range broadcasts {
		if n > 2 {
			t.Errorf("relay %s sent %s's query %d on %d broadcasts, want at most 2", c.relay, c.origin, c.id, n)
		}
		if n == 2 {
			twice++
		}
	}
	if twice == 0 {
		t.Errorf("of %d relayed queries none went out twice", len(broadcasts))
	}
	if len(unicasts) > 0 {
		t.Errorf("relayed queries rode %d unicast routing frames, e.g. %+v", len(unicasts), unicasts[0])
	}
}

// TestIdlePollBacksOff: over a minute of the gatewayless grid, each node's
// provider sends the wildcard queries of queryRound's schedule and no other —
// counted on the air by query ID — and each node relays each of the others'
// queries at most once.
func TestIdlePollBacksOff(t *testing.T) {
	var rounds []int
	for n := range 100 {
		if queryRound(n) {
			rounds = append(rounds, n)
		}
	}
	if want := []int{0, 1, 2, 4, 8, 16, 32, 64, 96}; !slices.Equal(rounds, want) {
		t.Fatalf("rounds %v of the first 100 query, want %v", rounds, want)
	}
	const span = time.Minute
	var mu sync.Mutex
	sent := make(map[netem.NodeID]map[uint32]bool)
	stats := runPollGrid(t, span, func(f netem.Frame, _ time.Duration) {
		queries := queriesOn(t, f)
		mu.Lock()
		defer mu.Unlock()
		for _, q := range queries {
			if q.Origin != f.Src {
				continue
			}
			if sent[f.Src] == nil {
				sent[f.Src] = make(map[uint32]bool)
			}
			sent[f.Src][q.ID] = true
		}
	})
	want := stats[0].Lookups // runPollGrid checked it against the schedule
	mu.Lock()
	defer mu.Unlock()
	if len(sent) != len(stats) {
		t.Errorf("%d of %d nodes sent queries", len(sent), len(stats))
	}
	for id, ids := range sent {
		if int64(len(ids)) != want {
			t.Errorf("node %s sent %d queries in %v, want %d", id, len(ids), span, want)
		}
	}
	for i, st := range stats {
		if bound := int64(len(stats)-1) * want; st.QueriesRelayed > bound {
			t.Errorf("node %d relayed %d queries, want at most %d", i+1, st.QueriesRelayed, bound)
		}
	}
}

// TestGatewayAdvertWakesIdleProvider: a gateway starts next to a grid whose
// providers have long given up asking every round. The gossiped advert wakes
// each provider as it is installed in the node's cache, and the provider
// attaches within one routing round of that, not at its next round.
func TestGatewayAdvertWakesIdleProvider(t *testing.T) {
	g := newPollGrid(t, func(netem.Frame, time.Duration) {})
	const gwID = netem.NodeID("10.0.0.10")
	g.add(t, gwID, netem.Position{X: 240}) // one hop east of 10.0.0.3
	var (
		mu                  sync.Mutex
		installed, attached [9]time.Time
	)
	for i, cp := range g.providers {
		g.agents[i].OnInstall(func(stype string) {
			mu.Lock()
			if stype == GatewayServiceType && installed[i].IsZero() {
				installed[i] = g.fake.Now()
			}
			mu.Unlock()
		})
		cp.OnChange(func(up bool) {
			mu.Lock()
			if up && attached[i].IsZero() {
				attached[i] = g.fake.Now()
			}
			mu.Unlock()
		})
	}
	g.fake.Sleep(20 * time.Second)
	for i, cp := range g.providers {
		if cp.Attached() || !errors.Is(cp.LastError(), ErrNoGateway) {
			t.Fatalf("provider %d: attached = %v, LastError = %v before any gateway", i+1, cp.Attached(), cp.LastError())
		}
	}

	inet := internet.New(internet.Config{Delay: time.Millisecond, Clock: g.fake, Shards: 1})
	t.Cleanup(inet.Close)
	gw := NewGatewayProvider(g.hosts[9], inet, g.agents[9], GatewayConfig{})
	if err := gw.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Stop)
	up := g.fake.Now()
	g.fake.Sleep(2 * time.Second)

	round := olsr.SimConfig().HelloInterval
	mu.Lock()
	defer mu.Unlock()
	for i, cp := range g.providers {
		if cp.Gateway() != gwID || installed[i].IsZero() || attached[i].IsZero() {
			t.Errorf("provider %d: gateway %q, advert installed %v, attached %v after the gateway started",
				i+1, cp.Gateway(), installed[i].Sub(up), attached[i].Sub(up))
			continue
		}
		took := attached[i].Sub(installed[i])
		t.Logf("provider %d: advert %v after the gateway started, attached %v later", i+1, installed[i].Sub(up), took)
		if took < 0 || took >= round {
			t.Errorf("provider %d attached %v after its advert arrived, want less than a routing round (%v; ProbeInterval %v)",
				i+1, took, round, g.cfg.ProbeInterval)
		}
	}
}
