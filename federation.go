package siphoc

import (
	"fmt"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/internet"
	"siphoc/internal/netem"
	"siphoc/internal/obs"
	"siphoc/internal/overlay"
)

// FederationConfig sizes a multi-MANET federation: K islands, each its own
// radio medium with M gateway nodes, joined only through one simulated
// Internet that also carries the sharded provider tier.
type FederationConfig struct {
	// Islands is the number of MANET islands K (default 3).
	Islands int
	// GatewaysPerIsland is M, the Internet-bridging nodes per island
	// (default 2; they share the inter-gateway trunk load).
	GatewaysPerIsland int
	// ClientsPerIsland is the number of non-gateway nodes per island
	// (default 3); phones are hosted on these.
	ClientsPerIsland int
	// Shards is the provider pool's registrar shard count (default 2).
	Shards int
	// Domain is the federation's SIP domain (default "fed.example").
	// Every phone in every island registers user@Domain.
	Domain string
	// Trunk enables gateway-side trunk multiplexing: concurrent RTP
	// streams crossing the same gateway pair collapse into one paced
	// inter-gateway flow.
	Trunk bool
	// Overlay stands up a P2P overlay registrar (the Kademlia DHT of
	// internal/overlay) on the simulated Internet and hands every island a
	// passive overlay client: proxies publish their registrations into the
	// DHT and resolve cross-island AORs through it *before* the DNS/provider
	// fallback — federation without a central registrar tier.
	Overlay bool
	// OverlayNodes is the number of full DHT nodes in the overlay tier
	// (default 8; only used when Overlay is set).
	OverlayNodes int
}

// islandSpacing is the distance between neighbouring island nodes in
// metres: one radio hop at the default 100 m range.
const islandSpacing = 80

func (c FederationConfig) withDefaults() FederationConfig {
	if c.Islands == 0 {
		c.Islands = 3
	}
	if c.GatewaysPerIsland == 0 {
		c.GatewaysPerIsland = 2
	}
	if c.ClientsPerIsland == 0 {
		c.ClientsPerIsland = 3
	}
	if c.Shards == 0 {
		c.Shards = 2
	}
	if c.Domain == "" {
		c.Domain = "fed.example"
	}
	if c.Overlay && c.OverlayNodes == 0 {
		c.OverlayNodes = 8
	}
	return c
}

// FederationScenario wires K MANET islands × M gateways each × a sharded
// provider pool into one deployment. Every island is an ordinary Scenario
// built with WithFederation and OLSR routing (proactive routing keeps SLP
// caches warm across the island), so the whole per-island API (nodes,
// phones, faults, metrics) keeps working; the federation owns the shared
// pieces — clock, observer, simulated Internet and the provider pool — and
// runs in virtual time: its clock is a clock.Fake owned by the goroutine that
// called NewFederationScenario, so that goroutine alone waits on it
// (WaitAttached, CallGenerator.Run, a phone's blocking calls).
//
// Island i owns the address prefix "10.<i+1>.0": its nodes are
// "10.<i+1>.0.1" … with the gateways first. Calls between islands resolve
// through the pool (the SLP hop is cache-only on islands, so inter-island
// AORs fail over to DNS immediately) and their media crosses gateway
// tunnels — trunked into shared inter-gateway flows when Trunk is set.
type FederationScenario struct {
	cfg      FederationConfig
	observer *obs.Observer
	inet     *internet.Internet
	pool     *internet.ProviderPool
	islands  []*Scenario

	// P2P overlay registrar tier (nil unless cfg.Overlay): full DHT nodes
	// on Internet hosts and one passive client per island.
	dht      []*overlay.Node
	oclients []*overlay.Node
}

// NewFederationScenario brings up the shared infrastructure, the provider
// pool and every island with its nodes. The returned federation is ready
// for WaitAttached/phone provisioning.
func NewFederationScenario(cfg FederationConfig) (*FederationScenario, error) {
	cfg = cfg.withDefaults()
	// An in-process network runs in virtual time, owned by the caller.
	clk := clock.NewFake(time.Unix(1_000_000, 0))
	f := &FederationScenario{cfg: cfg, observer: obs.New(clk)}
	f.inet = internet.New(internet.Config{Clock: clk})

	pool, err := internet.NewProviderPool(f.inet, internet.PoolConfig{
		Domain: cfg.Domain,
		Shards: cfg.Shards,
		// Federation workloads run for minutes; the 60 s default would
		// expire bindings mid-ramp (island proxies and phones use the same
		// hour-long TTL — see newNode / NewPhoneWith).
		BindingTTL: time.Hour,
	})
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("siphoc: federation provider pool: %w", err)
	}
	f.pool = pool

	if cfg.Overlay {
		if err := f.startOverlay(); err != nil {
			f.Close()
			return nil, err
		}
	}

	for i := range cfg.Islands {
		sc, err := f.addIsland(i)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.islands = append(f.islands, sc)
	}
	return f, nil
}

// IslandPrefix returns the address prefix owned by island i ("10.1.0" for
// island 0).
func (f *FederationScenario) IslandPrefix(i int) string {
	return fmt.Sprintf("10.%d.0", i+1)
}

// startOverlay brings up the DHT registrar tier on the simulated Internet:
// OverlayNodes full nodes bootstrapped off the first one, plus one passive
// client per island (it publishes and resolves for the island's proxies but
// stores nothing and stays out of the other nodes' k-buckets). The whole
// tier's timers run on the Internet's scheduler, so its goroutine count is
// independent of the overlay size.
func (f *FederationScenario) startOverlay() error {
	var boot []netem.NodeID
	newNode := func(id netem.NodeID, passive bool) (*overlay.Node, error) {
		host, err := f.inet.AddHost(id)
		if err != nil {
			return nil, fmt.Errorf("siphoc: overlay host %s: %w", id, err)
		}
		n, err := overlay.New(overlay.Config{
			Host:      host,
			Bootstrap: boot,
			Passive:   passive,
			Obs:       f.observer,
		})
		if err != nil {
			return nil, fmt.Errorf("siphoc: overlay node %s: %w", id, err)
		}
		if err := n.Start(); err != nil {
			return nil, fmt.Errorf("siphoc: overlay node %s: %w", id, err)
		}
		return n, nil
	}
	for k := range f.cfg.OverlayNodes {
		id := netem.NodeID(fmt.Sprintf("dht-%d", k+1))
		n, err := newNode(id, false)
		if err != nil {
			return err
		}
		f.dht = append(f.dht, n)
		if k == 0 {
			boot = []netem.NodeID{id}
		}
	}
	for i := range f.cfg.Islands {
		c, err := newNode(netem.NodeID(fmt.Sprintf("dht-client-%d", i+1)), true)
		if err != nil {
			return err
		}
		f.oclients = append(f.oclients, c)
	}
	return nil
}

func (f *FederationScenario) addIsland(i int) (*Scenario, error) {
	prefix := f.IslandPrefix(i)
	opts := []ScenarioOption{
		WithFederation(f, prefix),
		WithRoutingKind(RoutingOLSR),
	}
	if f.oclients != nil {
		opts = append(opts, WithOverlayDirectory(f.oclients[i]))
	}
	sc, err := NewScenarioWith(opts...)
	if err != nil {
		return nil, err
	}
	// One line of nodes per island, gateways first: a gateway is always
	// within a couple of hops, and the line exercises multihop media.
	total := f.cfg.GatewaysPerIsland + f.cfg.ClientsPerIsland
	specs := make([]nodeSpec, 0, total)
	for j := range total {
		specs = append(specs, nodeSpec{
			id:  NodeID(fmt.Sprintf("%s.%d", prefix, j+1)),
			pos: Position{X: float64(j) * islandSpacing, Y: float64(i) * 10_000},
		})
	}
	gws, clients := specs[:f.cfg.GatewaysPerIsland], specs[f.cfg.GatewaysPerIsland:]
	if _, err := sc.addNodes(gws, WithGateway()); err != nil {
		sc.Close()
		return nil, fmt.Errorf("siphoc: island %d gateways: %w", i, err)
	}
	if _, err := sc.addNodes(clients); err != nil {
		sc.Close()
		return nil, fmt.Errorf("siphoc: island %d clients: %w", i, err)
	}
	return sc, nil
}

// Islands returns every island scenario in index order.
func (f *FederationScenario) Islands() []*Scenario { return f.islands }

// Island returns island i.
func (f *FederationScenario) Island(i int) *Scenario { return f.islands[i] }

// Pool returns the sharded provider tier.
func (f *FederationScenario) Pool() *internet.ProviderPool { return f.pool }

// Overlay returns the full DHT nodes of the P2P overlay registrar tier, or
// nil unless the federation was built with FederationConfig.Overlay.
func (f *FederationScenario) Overlay() []*overlay.Node { return f.dht }

// OverlayClient returns island i's passive overlay client (the directory its
// proxies publish into and resolve through), or nil without Overlay.
func (f *FederationScenario) OverlayClient(i int) *overlay.Node {
	if i < 0 || i >= len(f.oclients) {
		return nil
	}
	return f.oclients[i]
}

// Internet returns the shared simulated Internet.
func (f *FederationScenario) Internet() *internet.Internet { return f.inet }

// Clock returns the federation-wide time source.
func (f *FederationScenario) Clock() clock.Clock { return f.inet.Network().Clock() }

// Observer returns the federation-wide observability handle.
func (f *FederationScenario) Observer() *Observer { return f.observer }

// Clients returns every non-gateway node across all islands, island by
// island — the hosts a call workload provisions phones on.
func (f *FederationScenario) Clients() []*Node {
	var out []*Node
	for i, sc := range f.islands {
		prefix := f.IslandPrefix(i)
		for j := range f.cfg.ClientsPerIsland {
			id := NodeID(fmt.Sprintf("%s.%d", prefix, f.cfg.GatewaysPerIsland+j+1))
			if n := sc.Node(id); n != nil {
				out = append(out, n)
			}
		}
	}
	return out
}

// WaitAttached blocks until every client node in every island reports
// Internet connectivity through its island gateways.
func (f *FederationScenario) WaitAttached(timeout time.Duration) error {
	clk := f.Clock()
	deadline := clk.Now().Add(timeout)
	for _, n := range f.Clients() {
		if err := n.scenario.WaitAttached(n, max(deadline.Sub(clk.Now()), time.Millisecond)); err != nil {
			return err
		}
	}
	return nil
}

// TrunkStats sums trunk counters across every gateway in the federation.
func (f *FederationScenario) TrunkStats() TrunkStats {
	var total TrunkStats
	for _, sc := range f.islands {
		for _, n := range sc.Nodes() {
			if g := n.Gateway(); g != nil {
				ts := g.TrunkStats()
				total.FramesSent += ts.FramesSent
				total.FramesRecv += ts.FramesRecv
				total.PayloadsBatched += ts.PayloadsBatched
				total.PayloadsDelivered += ts.PayloadsDelivered
				total.InlineFlushes += ts.InlineFlushes
				total.PacedFlushes += ts.PacedFlushes
			}
		}
	}
	return total
}

// Close tears the whole federation down: islands first (they skip the
// shared pieces), then the overlay tier, the pool and the Internet.
func (f *FederationScenario) Close() {
	for _, sc := range f.islands {
		sc.Close()
	}
	for _, c := range f.oclients {
		c.Close()
	}
	for _, n := range f.dht {
		n.Close()
	}
	if f.pool != nil {
		f.pool.Close()
	}
	if f.inet != nil {
		f.inet.Close()
	}
}
