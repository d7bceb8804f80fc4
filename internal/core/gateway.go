package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/internet"
	"siphoc/internal/netem"
	"siphoc/internal/obs"
	"siphoc/internal/slp"
)

// GatewayConfig tunes the Gateway Provider.
type GatewayConfig struct {
	// ClientTTL evicts tunnel clients that stop pinging (default 10s).
	ClientTTL time.Duration
	// Obs records tunnel gauges and counters. Nil disables.
	Obs *obs.Observer
	// Trunk enables inter-gateway media trunking: tunnelled datagrams
	// destined to another trunk-enabled gateway's client are batched into
	// paced trunk frames instead of crossing the Internet one datagram per
	// RTP packet.
	Trunk bool
}

func (c GatewayConfig) withDefaults() GatewayConfig {
	if c.ClientTTL == 0 {
		c.ClientTTL = 10 * time.Second
	}
	return c
}

// GatewayStats counts gateway activity.
type GatewayStats struct {
	TunnelsOpened int64
	TunnelsClosed int64
	FramesIn      int64 // datagrams tunnelled MANET -> Internet
	FramesOut     int64 // datagrams tunnelled Internet -> MANET
}

// gatewayCounters is the live, atomically updated form of GatewayStats, so
// snapshots never race with the tunnelling data path.
type gatewayCounters struct {
	tunnelsOpened atomic.Int64
	tunnelsClosed atomic.Int64
	framesIn      atomic.Int64
	framesOut     atomic.Int64
}

func (c *gatewayCounters) snapshot() GatewayStats {
	return GatewayStats{
		TunnelsOpened: c.tunnelsOpened.Load(),
		TunnelsClosed: c.tunnelsClosed.Load(),
		FramesIn:      c.framesIn.Load(),
		FramesOut:     c.framesOut.Load(),
	}
}

type tunnelClient struct {
	node     netem.NodeID
	peer     uint16 // client's tunnel port on the MANET side
	vhost    *netem.Host
	lastSeen time.Time
}

// GatewayProvider makes a node's Internet connectivity available to the
// MANET: it publishes an SLP gateway service and bridges tunnelled traffic
// onto the Internet by giving each tunnel client a virtual presence there
// (the layer-2 tunnel of the paper: the client is "automatically attached to
// the Internet").
type GatewayProvider struct {
	host  *netem.Host
	inet  *internet.Internet
	agent ServiceDirectory
	cfg   GatewayConfig
	clk   clock.Clock

	conn     *netem.Conn
	tx       tunnelTx
	selfHost *netem.Host   // the gateway's own Internet presence
	trunk    *gatewayTrunk // nil unless cfg.Trunk is set
	// rx is the header a tunnelled datagram is decoded into; conn serializes
	// onDatagram, so one is enough.
	rx netem.Datagram

	mu      sync.Mutex
	clients map[netem.NodeID]*tunnelClient
	started bool
	closed  bool
	evict   *clock.Task

	stats gatewayCounters
	// Pre-resolved obs handle; nil when cfg.Obs is nil.
	obsClients *obs.Gauge
}

// NewGatewayProvider creates the provider for a node that has Internet
// connectivity (modelled by access to inet). agent is the node's MANET SLP
// agent, used to publish the gateway service.
func NewGatewayProvider(host *netem.Host, inet *internet.Internet, agent ServiceDirectory, cfg GatewayConfig) *GatewayProvider {
	cfg = cfg.withDefaults()
	g := &GatewayProvider{
		host:    host,
		inet:    inet,
		agent:   agent,
		cfg:     cfg,
		clk:     host.Clock(),
		clients: make(map[netem.NodeID]*tunnelClient),
	}
	if cfg.Obs.Enabled() {
		g.obsClients = cfg.Obs.Gauge("gateway.tunnels.active")
	}
	return g
}

// Start publishes the gateway service and begins accepting tunnels. It also
// attaches the gateway node itself to the Internet.
func (g *GatewayProvider) Start() error {
	g.mu.Lock()
	if g.started {
		g.mu.Unlock()
		return fmt.Errorf("core: gateway already started")
	}
	g.started = true
	g.mu.Unlock()

	conn, err := g.host.Listen(TunnelPort)
	if err != nil {
		return fmt.Errorf("core: gateway bind: %w", err)
	}
	g.conn = conn

	// The gateway's own Internet presence: traffic to our node ID on the
	// Internet is injected into the local MANET-side stack, and local
	// traffic with no MANET route leaves via the Internet.
	selfHost, err := g.inet.AddHost(g.host.ID())
	if err != nil {
		conn.Close()
		return fmt.Errorf("core: gateway internet attach: %w", err)
	}
	g.selfHost = selfHost
	selfHost.SetSink(func(dg *netem.Datagram) {
		g.host.InjectDatagram(dg)
	})
	g.host.SetDefaultHandler(func(dg *netem.Datagram) bool {
		return g.selfHost.SendDatagram(dg) == nil
	})

	if g.cfg.Trunk {
		trunk, err := newGatewayTrunk(g)
		if err != nil {
			g.inet.RemoveHost(g.host.ID())
			g.host.SetDefaultHandler(nil)
			conn.Close()
			return err
		}
		g.trunk = trunk
	}

	// Keyed by our node ID so several gateways can coexist in the SLP
	// caches; Connection Providers browse the type and pick one.
	if err := g.agent.Register(slp.Service{
		Type: GatewayServiceType,
		Key:  string(g.host.ID()),
		URL:  slp.ServiceURL(GatewayServiceType, fmt.Sprintf("%s:%d", g.host.ID(), TunnelPort)),
	}); err != nil {
		conn.Close()
		return err
	}

	conn.Handle(g.onDatagram)
	g.mu.Lock()
	if !g.closed {
		g.evict = g.host.Sched().Every(string(g.host.ID()), g.cfg.ClientTTL/2, g.evictIdle)
	}
	g.mu.Unlock()
	return nil
}

// Stop withdraws the gateway service and tears all tunnels down.
func (g *GatewayProvider) Stop() {
	g.mu.Lock()
	if !g.started || g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	g.evict.Stop()
	clients := make([]*tunnelClient, 0, len(g.clients))
	for _, c := range g.clients {
		clients = append(clients, c)
	}
	g.clients = make(map[netem.NodeID]*tunnelClient)
	g.mu.Unlock()

	g.agent.Deregister(GatewayServiceType, string(g.host.ID()))
	for _, c := range clients {
		// Graceful shutdown: tell each client the tunnel is gone so its
		// Connection Provider fails over immediately instead of waiting for
		// a ping timeout.
		_ = g.tx.send(g.conn, tunnelMsg{Kind: tunClose}, tunnelPeer{c.node, c.peer})
		if g.trunk != nil {
			g.inet.UnregisterTrunkClient(c.node, g.host.ID())
		}
		g.inet.RemoveHost(c.node)
	}
	if g.trunk != nil {
		g.trunk.close()
	}
	// Withdraw the gateway's own Internet presence too, or the node can
	// never come back as a gateway under the same ID.
	g.inet.RemoveHost(g.host.ID())
	g.host.SetDefaultHandler(nil)
	g.conn.Close()
}

// Stats returns a snapshot of the gateway counters.
func (g *GatewayProvider) Stats() GatewayStats {
	return g.stats.snapshot()
}

// TrunkStats returns a snapshot of the trunk counters (zero when trunking is
// disabled).
func (g *GatewayProvider) TrunkStats() TrunkStats {
	if g.trunk == nil {
		return TrunkStats{}
	}
	return g.trunk.stats.snapshot()
}

// Clients returns the nodes currently tunnelled through this gateway.
func (g *GatewayProvider) Clients() []netem.NodeID {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]netem.NodeID, 0, len(g.clients))
	for id := range g.clients {
		out = append(out, id)
	}
	return out
}

// onDatagram serves the tunnel port, inline on the delivery that brought the
// message. After Stop there are no clients left to serve, and handleOpen
// admits no new one.
func (g *GatewayProvider) onDatagram(dg *netem.Datagram) {
	msg, err := parseTunnelMsg(dg.Data)
	if err != nil {
		return
	}
	switch msg.Kind {
	case tunOpen:
		g.handleOpen(dg.SrcNode, dg.SrcPort)
	case tunData:
		g.handleData(dg.SrcNode, msg.Inner)
	case tunClose:
		g.closeClient(dg.SrcNode)
	case tunPing:
		// A PONG vouches for a tunnel this gateway holds. A client it holds
		// none for — after a restart, or once evictIdle dropped it — gets
		// the answer to a refused OPEN instead, and opens its tunnel again
		// rather than sending traffic that handleData would drop.
		answer := tunnelMsg{Kind: tunPong}
		if !g.touch(dg.SrcNode) {
			answer = tunnelMsg{Kind: tunOpenAck, OK: false}
		}
		_ = g.tx.send(g.conn, answer, tunnelPeer{dg.SrcNode, dg.SrcPort})
	}
}

func (g *GatewayProvider) handleOpen(node netem.NodeID, peerPort uint16) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	if c, ok := g.clients[node]; ok {
		// Re-open from the same node: refresh.
		c.peer = peerPort
		c.lastSeen = g.clk.Now()
		g.mu.Unlock()
		_ = g.tx.send(g.conn, tunnelMsg{Kind: tunOpenAck, OK: true}, tunnelPeer{node, peerPort})
		return
	}
	g.mu.Unlock()

	vhost, err := g.inet.AddHost(node)
	if err != nil {
		_ = g.tx.send(g.conn, tunnelMsg{Kind: tunOpenAck, OK: false}, tunnelPeer{node, peerPort})
		return
	}
	if g.trunk != nil {
		g.inet.RegisterTrunkClient(node, g.host.ID())
	}
	c := &tunnelClient{node: node, peer: peerPort, vhost: vhost, lastSeen: g.clk.Now()}
	vhost.SetSink(func(dg *netem.Datagram) {
		g.mu.Lock()
		peer := c.peer
		g.mu.Unlock()
		g.tx.sendDatagram(g.conn, dg, tunnelPeer{node, peer}, &g.stats.framesOut)
	})
	g.mu.Lock()
	g.clients[node] = c
	active := len(g.clients)
	g.mu.Unlock()
	g.stats.tunnelsOpened.Add(1)
	g.obsClients.Set(int64(active))
	_ = g.tx.send(g.conn, tunnelMsg{Kind: tunOpenAck, OK: true}, tunnelPeer{node, peerPort})
}

func (g *GatewayProvider) handleData(node netem.NodeID, inner []byte) {
	g.mu.Lock()
	c := g.clients[node]
	if c != nil {
		c.lastSeen = g.clk.Now()
	}
	g.mu.Unlock()
	if c == nil {
		return
	}
	g.stats.framesIn.Add(1)
	// Both node IDs are Internet hosts' (the client's own presence is one),
	// so the Internet's copies of them cost nothing.
	dg := &g.rx
	if decapsulate(dg, inner, g.inet.Network()) != nil {
		return
	}
	// When the destination is another trunk-enabled gateway's tunnel client,
	// fold the already-marshalled datagram into that gateway's trunk instead
	// of sending it across the Internet on its own.
	if g.trunk != nil {
		if gw, ok := g.inet.TrunkGatewayFor(dg.DstNode); ok && gw != g.host.ID() {
			if g.trunk.enqueue(gw, inner) {
				return
			}
		}
	}
	_ = c.vhost.SendDatagram(dg)
}

// deliverTrunked hands a datagram received inside a trunk frame to its local
// tunnel client, the same path an untrunked Internet datagram would take
// through the client's virtual-host sink. If the client is gone (it
// re-tunnelled elsewhere between send and receive), the datagram is re-sent
// over the Internet so it still arrives via the client's current gateway.
func (g *GatewayProvider) deliverTrunked(dg *netem.Datagram) {
	g.mu.Lock()
	c := g.clients[dg.DstNode]
	var peer uint16
	if c != nil {
		peer = c.peer
	}
	g.mu.Unlock()
	if c == nil {
		_ = g.selfHost.SendDatagram(dg)
		return
	}
	g.tx.sendDatagram(g.conn, dg, tunnelPeer{c.node, peer}, &g.stats.framesOut)
}

// touch refreshes node's tunnel, and reports whether the gateway holds one.
func (g *GatewayProvider) touch(node netem.NodeID) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	c := g.clients[node]
	if c != nil {
		c.lastSeen = g.clk.Now()
	}
	return c != nil
}

func (g *GatewayProvider) closeClient(node netem.NodeID) {
	g.mu.Lock()
	c := g.clients[node]
	delete(g.clients, node)
	active := len(g.clients)
	g.mu.Unlock()
	if c != nil {
		g.stats.tunnelsClosed.Add(1)
		g.obsClients.Set(int64(active))
		if g.trunk != nil {
			g.inet.UnregisterTrunkClient(node, g.host.ID())
		}
		g.inet.RemoveHost(node)
	}
}

// evictIdle is the eviction sweep, every ClientTTL/2: tunnel clients that
// stopped pinging lose their Internet presence.
func (g *GatewayProvider) evictIdle(now time.Time) {
	var dead []netem.NodeID
	g.mu.Lock()
	for id, c := range g.clients {
		if now.Sub(c.lastSeen) > g.cfg.ClientTTL {
			dead = append(dead, id)
		}
	}
	g.mu.Unlock()
	for _, id := range dead {
		g.closeClient(id)
	}
}
