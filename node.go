package siphoc

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"siphoc/internal/core"
	"siphoc/internal/netem"
	"siphoc/internal/routing"
	"siphoc/internal/routing/aodv"
	"siphoc/internal/routing/olsr"
	"siphoc/internal/sip"
	"siphoc/internal/slp"
	"siphoc/internal/voip"
)

// NodeOption customizes one node.
type NodeOption func(*nodeOptions)

type nodeOptions struct {
	gateway     bool
	noConnPrvdr bool
}

// WithGateway makes the node a gateway: it is attached to the scenario's
// Internet and runs a Gateway Provider publishing the gateway SLP service.
func WithGateway() NodeOption { return func(o *nodeOptions) { o.gateway = true } }

// WithoutConnectionProvider disables the node's Connection Provider, e.g.
// for baseline experiments on isolated MANETs.
func WithoutConnectionProvider() NodeOption { return func(o *nodeOptions) { o.noConnPrvdr = true } }

// Node is one MANET node running the full SIPHoc service set: the routing
// protocol, the MANET SLP agent (loaded as the routing-handler plugin), the
// Connection Provider, the per-node SIP proxy and, on gateways, the Gateway
// Provider — the five-component architecture of the paper's Figure 1 (the
// fifth component, the VoIP application, is created with NewPhone).
type Node struct {
	scenario *Scenario
	host     *netem.Host
	routing  routing.Protocol
	agent    *slp.Agent
	connp    *core.ConnectionProvider
	gateway  *core.GatewayProvider
	proxy    *core.Proxy

	mu     sync.Mutex
	phones []*voip.Phone
	closed bool
}

func (s *Scenario) newNode(id NodeID, pos Position, opts ...NodeOption) (*Node, error) {
	var o nodeOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.gateway && s.inet == nil {
		return nil, fmt.Errorf("siphoc: gateway node %s needs a scenario with Internet", id)
	}
	host, err := s.net.AddHost(id, pos)
	if err != nil {
		return nil, err
	}
	n := &Node{scenario: s, host: host}
	cleanup := func() {
		n.Close()
		s.net.RemoveHost(id)
	}

	// MANET SLP agent (the routing-handler plugin owner).
	n.agent = slp.NewAgent(host, slp.Config{Obs: s.obs})

	// Routing protocol with the SLP plugin attached before start.
	switch s.routing {
	case RoutingAODV:
		cfg := aodv.SimConfig()
		cfg.Obs = s.obs
		n.routing = aodv.New(host, cfg)
	case RoutingOLSR:
		cfg := olsr.SimConfig()
		if s.olsr != nil {
			cfg = *s.olsr
		}
		if cfg.Obs == nil {
			cfg.Obs = s.obs
		}
		n.routing = olsr.New(host, cfg)
	default:
		cleanup()
		return nil, fmt.Errorf("siphoc: unknown routing kind %v", s.routing)
	}
	n.agent.AttachRouting(n.routing)
	if err := n.routing.Start(); err != nil {
		cleanup()
		return nil, err
	}
	if err := n.agent.Start(); err != nil {
		cleanup()
		return nil, err
	}

	// Gateway Provider on Internet-connected nodes.
	if o.gateway {
		n.gateway = core.NewGatewayProvider(host, s.inet, n.agent, core.GatewayConfig{Obs: s.obs, Trunk: s.trunk})
		if err := n.gateway.Start(); err != nil {
			cleanup()
			return nil, err
		}
	}

	// Connection Provider everywhere else (a gateway is already attached).
	if !o.noConnPrvdr && !o.gateway {
		cpCfg := core.ConnProviderConfig{
			Obs:           s.obs,
			ProbeInterval: 250 * time.Millisecond,
			LookupTimeout: 200 * time.Millisecond,
		}
		if s.prefix != "" {
			// Federation island: only addresses under the island's own
			// prefix are MANET-local; everything else (other islands, the
			// provider tier) leaves through the gateway tunnel.
			prefix := s.prefix + "."
			cpCfg.IsLocal = func(id netem.NodeID) bool {
				return strings.HasPrefix(string(id), prefix)
			}
		}
		n.connp = core.NewConnectionProvider(host, n.agent, cpCfg)
		if err := n.connp.Start(); err != nil {
			cleanup()
			return nil, err
		}
	}

	// The SIPHoc proxy.
	proxyCfg := core.ProxyConfig{
		Obs:          s.obs,
		SLPCacheOnly: s.prefix != "",
	}
	if s.prefix != "" {
		// Federation workloads hold thousands of registrations across runs
		// that last minutes; the 60 s default would expire bindings mid-call
		// ramp. Nothing in the federation experiments tests expiry.
		proxyCfg.BindingTTL = time.Hour
	}
	if s.overlay != nil {
		// Third resolver backend: the P2P overlay registrar slots between
		// the SLP cache and DNS, and every local registration is published
		// into it (see core.ProxyConfig.Overlay).
		proxyCfg.Overlay = s.overlay
	}
	n.proxy = core.NewProxy(host, n.agent, n.connp, proxyCfg)
	if err := n.proxy.Start(); err != nil {
		cleanup()
		return nil, err
	}
	return n, nil
}

// ID returns the node's address.
func (n *Node) ID() NodeID { return n.host.ID() }

// Host exposes the node's network stack.
func (n *Node) Host() *netem.Host { return n.host }

// RoutingName returns the routing protocol in use ("AODV" or "OLSR").
func (n *Node) RoutingName() string { return n.routing.Name() }

// Routing exposes the node's routing protocol instance.
func (n *Node) Routing() routing.Protocol { return n.routing }

// SLP exposes the node's MANET SLP agent.
func (n *Node) SLP() *slp.Agent { return n.agent }

// Proxy exposes the node's SIPHoc proxy.
func (n *Node) Proxy() *core.Proxy { return n.proxy }

// Gateway exposes the node's Gateway Provider (nil for non-gateways).
func (n *Node) Gateway() *core.GatewayProvider { return n.gateway }

// ConnectionProvider exposes the node's Connection Provider (nil on
// gateways and nodes created with WithoutConnectionProvider).
func (n *Node) ConnectionProvider() *core.ConnectionProvider { return n.connp }

// InternetAttached reports whether the node currently reaches the Internet
// (as a gateway or through one).
func (n *Node) InternetAttached() bool {
	if n.gateway != nil {
		return true
	}
	if n.connp != nil {
		return n.connp.Attached()
	}
	return false
}

// NewPhone creates a softphone on this node configured exactly as the
// paper's Figure 2: account user@domain with the outbound proxy pointed at
// the local SIPHoc proxy.
func (n *Node) NewPhone(user, domain string) (*Phone, error) {
	return n.NewPhoneWith(PhoneConfig{User: user, Domain: domain})
}

// NewPhoneWith creates a softphone with explicit settings; OutboundProxy
// defaults to the local proxy and the port is auto-assigned when several
// phones share a node.
func (n *Node) NewPhoneWith(cfg PhoneConfig) (*Phone, error) {
	n.mu.Lock()
	count := len(n.phones)
	n.mu.Unlock()
	if cfg.OutboundProxy == (sip.Addr{}) {
		cfg.OutboundProxy = n.proxy.Addr()
	}
	if cfg.Port == 0 {
		cfg.Port = 5062 + uint16(2*count)
	}
	if cfg.Obs == nil {
		cfg.Obs = n.scenario.obs
	}
	if cfg.RegisterTTL == 0 && n.scenario.prefix != "" {
		// Match the island proxy's federation binding TTL (see newNode):
		// the requested Expires overrides the registrar default, so a 60 s
		// phone TTL would win over the hour-long proxy/pool TTLs.
		cfg.RegisterTTL = time.Hour
	}
	ph := voip.New(n.host, cfg)
	if err := ph.Start(); err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.phones = append(n.phones, ph)
	n.mu.Unlock()
	return ph, nil
}

// Close stops all services on the node.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	phones := n.phones
	n.phones = nil
	n.mu.Unlock()
	for _, ph := range phones {
		ph.Stop()
	}
	if n.proxy != nil {
		n.proxy.Stop()
	}
	if n.connp != nil {
		n.connp.Stop()
	}
	if n.gateway != nil {
		n.gateway.Stop()
	}
	if n.agent != nil {
		n.agent.Stop()
	}
	if n.routing != nil {
		n.routing.Stop()
	}
	n.host.Close()
}
