package siphoc

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/core"
	"siphoc/internal/internet"
	"siphoc/internal/netem"
	"siphoc/internal/obs"
	"siphoc/internal/routing/olsr"
	"siphoc/internal/voip"
)

// RoutingKind selects the MANET routing protocol for a scenario or node.
type RoutingKind int

// Supported routing protocols ("currently, our system supports two routing
// protocols, AODV and OLSR" — paper §3.1).
const (
	RoutingAODV RoutingKind = iota + 1
	RoutingOLSR
)

// String implements fmt.Stringer.
func (k RoutingKind) String() string {
	switch k {
	case RoutingAODV:
		return "AODV"
	case RoutingOLSR:
		return "OLSR"
	default:
		return fmt.Sprintf("routing(%d)", int(k))
	}
}

// ScenarioOption customizes scenario construction (NewScenarioWith). Options
// compose: a federation island can also override routing and carry an
// overlay directory, all in one call.
type ScenarioOption func(*scenarioBuild)

// scenarioBuild accumulates option state before the Scenario exists.
type scenarioBuild struct {
	radio     netem.Config          // the MANET medium; the zero value uses netem defaults
	routing   RoutingKind           // default AODV
	olsr      *olsr.Config          // nil keeps olsr.SimConfig
	internet  bool                  // create a simulated Internet
	inetDelay time.Duration         // its per-hop latency (0 keeps the 5 ms default)
	noObs     bool                  // no scenario-wide observer
	clock     clock.Clock           // federation: the federation's clock
	inet      *internet.Internet    // shared external Internet (not closed by Scenario.Close)
	obs       *obs.Observer         // shared external observer
	prefix    string                // federation: the island's address prefix ("10.2.0")
	trunk     bool                  // enable gateway trunk multiplexing
	overlay   core.OverlayDirectory // P2P overlay registrar shared by the scenario's proxies
}

// WithRadio tunes the MANET medium (range, delay, loss, seed). Its Clock is
// the scenario's time source, and so every component's (default the system
// clock; fake clocks give deterministic schedules).
func WithRadio(r netem.Config) ScenarioOption {
	return func(b *scenarioBuild) { b.radio = r }
}

// WithRoutingKind selects the MANET routing protocol (default AODV).
func WithRoutingKind(k RoutingKind) ScenarioOption {
	return func(b *scenarioBuild) { b.routing = k }
}

// WithOLSR selects OLSR routing with an optional configuration override.
// Nil keeps olsr.SimConfig, whose timings suit small networks; large grids
// need intervals scaled with node count to keep the control-plane load
// inside the machine. Obs is filled from the scenario when unset.
func WithOLSR(cfg *olsr.Config) ScenarioOption {
	return func(b *scenarioBuild) {
		b.routing = RoutingOLSR
		b.olsr = cfg
	}
}

// WithInternet attaches a simulated Internet with the given per-hop latency
// (0 keeps the 5 ms default) that gateway nodes can bridge to.
func WithInternet(delay time.Duration) ScenarioOption {
	return func(b *scenarioBuild) {
		b.internet = true
		b.inetDelay = delay
	}
}

// WithoutObservability disables the scenario-wide metrics registry and call
// tracer, for overhead-sensitive benchmarks.
func WithoutObservability() ScenarioOption {
	return func(b *scenarioBuild) { b.noObs = true }
}

// WithOverlayDirectory hands every proxy in the scenario a P2P overlay
// registrar (the Kademlia DHT of internal/overlay) as a third resolver
// backend: the proxy publishes its registrations into the overlay and, when
// attached, resolves AORs that miss the MANET SLP cache through it before
// falling back to DNS. The usual deployment is a passive overlay client
// (overlay.Config.Passive) shared by an island's proxies; the scenario does
// not close the directory — its owner does.
func WithOverlayDirectory(dir core.OverlayDirectory) ScenarioOption {
	return func(b *scenarioBuild) { b.overlay = dir }
}

// WithFederation makes the scenario one island of a federation: it shares
// the federation's clock, observer and simulated Internet (none of which
// Scenario.Close touches), scopes the Connection Provider's
// locality test to the island's address prefix, enables trunking when the
// federation asks for it, and switches the proxy's SLP resolver to
// cache-only (see core.ProxyConfig.SLPCacheOnly for why).
func WithFederation(f *FederationScenario, islandPrefix string) ScenarioOption {
	return func(b *scenarioBuild) {
		b.internet = true
		b.clock = f.Clock()
		b.obs = f.observer
		b.inet = f.inet
		b.prefix = islandPrefix
		b.trunk = f.cfg.Trunk
	}
}

// Scenario is a complete deployment: a MANET, optionally a simulated
// Internet with SIP providers, and the set of SIPHoc nodes.
type Scenario struct {
	routing RoutingKind
	olsr    *olsr.Config
	obs     *obs.Observer // nil under WithoutObservability

	net  *netem.Network
	inet *internet.Internet

	ownInet bool                  // close inet on Close (false for federation islands)
	prefix  string                // federation island address prefix ("" = standalone)
	trunk   bool                  // gateway nodes run trunk multiplexing
	overlay core.OverlayDirectory // shared overlay registrar (not closed here)

	mu         sync.Mutex
	nodes      map[netem.NodeID]*Node
	providers  []*internet.Provider
	inetPhones []*Phone
	closed     bool
}

// NewScenarioWith builds an empty deployment from functional options.
func NewScenarioWith(opts ...ScenarioOption) (*Scenario, error) {
	b := scenarioBuild{routing: RoutingAODV}
	for _, opt := range opts {
		opt(&b)
	}
	radio := b.radio
	switch {
	case radio.Clock == nil:
		radio.Clock = b.clock
	case b.clock != nil && b.clock != radio.Clock:
		return nil, fmt.Errorf("siphoc: the radio's clock is not the federation's; a scenario has one")
	}
	observer := b.obs
	if observer == nil && !b.noObs {
		observer = obs.New(radio.Clock) // nil is the system clock here as in the network
	}
	if radio.Obs == nil {
		radio.Obs = observer
	}
	s := &Scenario{
		routing: b.routing,
		olsr:    b.olsr,
		obs:     observer,
		net:     netem.NewNetwork(radio),
		prefix:  b.prefix,
		trunk:   b.trunk,
		overlay: b.overlay,
		nodes:   make(map[netem.NodeID]*Node),
	}
	switch {
	case b.inet != nil:
		s.inet = b.inet
	case b.internet:
		s.inet = internet.New(internet.Config{Delay: b.inetDelay, Clock: radio.Clock})
		s.ownInet = true
	}
	return s, nil
}

// Network exposes the MANET medium (stats, topology control, mobility).
func (s *Scenario) Network() *netem.Network { return s.net }

// Observer returns the scenario-wide observability handle shared by every
// node's components: the metrics registry and the call tracer. It is nil
// when the scenario was created WithoutObservability — and a nil Observer
// is itself valid (every method no-ops), so callers never need to check.
func (s *Scenario) Observer() *Observer { return s.obs }

// Internet exposes the simulated Internet, or nil.
func (s *Scenario) Internet() *internet.Internet { return s.inet }

// Clock returns the scenario's time source: its network's.
func (s *Scenario) Clock() clock.Clock { return s.net.Clock() }

// AddNode creates a full SIPHoc node (routing protocol, MANET SLP,
// Connection Provider, proxy — plus a Gateway Provider for gateway nodes)
// at the given position and starts all its services.
func (s *Scenario) AddNode(id NodeID, pos Position, opts ...NodeOption) (*Node, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("siphoc: scenario closed")
	}
	s.mu.Unlock()
	n, err := s.newNode(id, pos, opts...)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.nodes[id] = n
	s.mu.Unlock()
	return n, nil
}

// Node returns the node with the given ID, or nil.
func (s *Scenario) Node(id NodeID) *Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nodes[id]
}

// Nodes returns all nodes in creation order of their IDs.
func (s *Scenario) Nodes() []*Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Node, 0, len(s.nodes))
	for _, id := range s.net.Nodes() {
		if n, ok := s.nodes[id]; ok {
			out = append(out, n)
		}
	}
	return out
}

// Chain creates count nodes in a line with the given spacing, producing a
// multihop path (the paper's firewalled-testbed topology). Node IDs are
// "10.0.0.1" … "10.0.0.<count>".
func (s *Scenario) Chain(count int, spacing float64, opts ...NodeOption) ([]*Node, error) {
	specs := make([]nodeSpec, count)
	for i := range count {
		specs[i] = nodeSpec{id: netem.NodeName("10.0.0", i+1), pos: Position{X: float64(i) * spacing}}
	}
	return s.addNodes(specs, opts...)
}

// Grid creates rows×cols nodes on a regular grid (the campus scenario).
func (s *Scenario) Grid(rows, cols int, spacing float64, opts ...NodeOption) ([]*Node, error) {
	specs := make([]nodeSpec, 0, rows*cols)
	for r := range rows {
		for c := range cols {
			specs = append(specs, nodeSpec{
				id:  netem.NodeName("10.0.0", r*cols+c+1),
				pos: Position{X: float64(c) * spacing, Y: float64(r) * spacing},
			})
		}
	}
	return s.addNodes(specs, opts...)
}

type nodeSpec struct {
	id  NodeID
	pos Position
}

// closeParallelism bounds concurrent node teardown (see Close).
func closeParallelism() int {
	limit := runtime.GOMAXPROCS(0) * 2
	if limit < 4 {
		limit = 4
	}
	return limit
}

// addNodes gives a batch of nodes their handles in spec order with one
// publish, then brings them up one after another: handles, and with them the
// order of HELLO neighbours and TC selectors, are the same on every run. The
// first error tears down every node already up. Results keep spec order.
func (s *Scenario) addNodes(specs []nodeSpec, opts ...NodeOption) ([]*Node, error) {
	ids := make([]NodeID, len(specs))
	for i, sp := range specs {
		ids[i] = sp.id
	}
	s.net.InternAll(ids...)
	nodes := make([]*Node, 0, len(specs))
	for _, sp := range specs {
		n, err := s.AddNode(sp.id, sp.pos, opts...)
		if err != nil {
			for _, n := range nodes {
				s.RemoveNode(n.ID())
			}
			return nil, fmt.Errorf("siphoc: bring up node %s: %w", sp.id, err)
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}

// AddProvider creates an Internet SIP provider (requires Internet: true).
func (s *Scenario) AddProvider(cfg ProviderConfig) (*Provider, error) {
	if s.inet == nil {
		return nil, fmt.Errorf("siphoc: scenario has no Internet")
	}
	p, err := internet.NewProvider(s.inet, cfg)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.providers = append(s.providers, p)
	s.mu.Unlock()
	return p, nil
}

// AddInternetPhone creates a softphone directly attached to the Internet
// (e.g. the remote party of a MANET-to-Internet call): a host named hostID
// is added to the Internet and the phone uses the provider responsible for
// domain as its proxy.
func (s *Scenario) AddInternetPhone(user, domain string, hostID NodeID) (*Phone, error) {
	return s.AddInternetPhoneWithPassword(user, "", domain, hostID)
}

// AddInternetPhoneWithPassword is AddInternetPhone with digest credentials
// for providers that require authentication.
func (s *Scenario) AddInternetPhoneWithPassword(user, password, domain string, hostID NodeID) (*Phone, error) {
	if s.inet == nil {
		return nil, fmt.Errorf("siphoc: scenario has no Internet")
	}
	var prov *internet.Provider
	s.mu.Lock()
	for _, p := range s.providers {
		if p.Domain() == domain {
			prov = p
			break
		}
	}
	s.mu.Unlock()
	if prov == nil {
		return nil, fmt.Errorf("siphoc: no provider for domain %q", domain)
	}
	host, err := s.inet.AddHost(hostID)
	if err != nil {
		return nil, err
	}
	// The normal Internet SIP configuration, without SIPHoc in the path: the
	// provider's proxy is the outbound proxy.
	ph := voip.New(host, voip.Config{
		User: user, Password: password, Domain: domain,
		OutboundProxy: prov.ProxyAddr(),
	})
	if err := ph.Start(); err != nil {
		s.inet.RemoveHost(hostID)
		return nil, err
	}
	s.mu.Lock()
	s.inetPhones = append(s.inetPhones, ph)
	s.mu.Unlock()
	return ph, nil
}

// WaitAttached blocks until the node reports Internet connectivity or the
// timeout elapses. For nodes with a Connection Provider the timeout error
// wraps core.ErrNoGateway (re-exported as ErrNoGateway), so callers can
// errors.Is the "no usable gateway" condition. The wait spans the whole
// timeout even while the provider's own retry budget is exhausted: a
// gateway appearing late still attaches the node.
func (s *Scenario) WaitAttached(n *Node, timeout time.Duration) error {
	clk := s.Clock()
	deadline := clk.Now().Add(timeout)
	for !n.InternetAttached() {
		if clk.Now().After(deadline) {
			if n.connp != nil {
				return fmt.Errorf("siphoc: node %s not attached after %v: %w", n.ID(), timeout, core.ErrNoGateway)
			}
			return fmt.Errorf("siphoc: node %s never attached to the Internet", n.ID())
		}
		clk.Sleep(10 * time.Millisecond)
	}
	return nil
}

// RemoveNode stops a node and removes it from the MANET (simulating a crash
// or power-off).
func (s *Scenario) RemoveNode(id NodeID) {
	s.mu.Lock()
	n := s.nodes[id]
	delete(s.nodes, id)
	s.mu.Unlock()
	if n != nil {
		n.Close()
	}
	s.net.RemoveHost(id)
}

// Close stops everything.
func (s *Scenario) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	nodes := make([]*Node, 0, len(s.nodes))
	for _, n := range s.nodes {
		nodes = append(nodes, n)
	}
	providers := s.providers
	inetPhones := s.inetPhones
	s.mu.Unlock()
	for _, ph := range inetPhones {
		ph.Stop()
	}
	// Close nodes in parallel: a sequential sweep leaves survivors running
	// long enough to notice the shrinking neighbourhood (NeighborHold) and
	// churn through route rebuilds on a collapsing topology — on a 400-node
	// grid that turns teardown from seconds into minutes.
	var wg sync.WaitGroup
	sem := make(chan struct{}, closeParallelism())
	for _, n := range nodes {
		sem <- struct{}{}
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			defer func() { <-sem }()
			n.Close()
		}(n)
	}
	wg.Wait()
	for _, p := range providers {
		p.Close()
	}
	if s.inet != nil && s.ownInet {
		s.inet.Close()
	}
	s.net.Close()
}
