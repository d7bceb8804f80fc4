// Package internet simulates the fixed Internet the paper's MANET
// occasionally connects to: a fully connected network hosting SIP providers
// (the paper tested siphoc.ch, netvoip.ch and polyphone.ethz.ch), reachable
// from the MANET only through a gateway node's layer-2 tunnel.
//
// The Internet is modelled as a netem.Network whose nodes are all mutually
// reachable in one hop (a star/backbone abstraction): hosts get a full-mesh
// route provider and generous radio range. Host names double as DNS names —
// a provider for domain "voicehoc.ch" runs on the node with that ID, which
// is exactly how the SIPHoc proxy resolves "the SIP proxy can be deduced
// from the domain part of the SIP URI" (RFC 3261 §8.1.2).
package internet

import (
	"fmt"
	"sync"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
)

// FullMesh routes every destination as a direct neighbour — the Internet's
// "it just works" forwarding abstraction.
type FullMesh struct{}

var _ netem.RouteProvider = FullMesh{}

// NextHop implements netem.RouteProvider.
func (FullMesh) NextHop(dst netem.NodeID) (netem.NodeID, bool) { return dst, true }

// RequestRoute implements netem.RouteProvider.
func (FullMesh) RequestRoute(dst netem.NodeID, done func(bool)) { done(true) }

// Internet wraps the fixed network.
type Internet struct {
	net *netem.Network

	// Trunk directory: which gateway's tunnel currently serves a MANET
	// client's virtual Internet presence. Gateways publish their tunnel
	// clients here so a peer gateway can trunk media toward them instead of
	// sending one Internet datagram per RTP packet.
	trunkMu sync.RWMutex
	trunk   map[netem.NodeID]netem.NodeID // vhost -> serving gateway
}

// Config tunes the simulated Internet.
type Config struct {
	// Delay is the per-hop latency between Internet hosts (default 5ms,
	// a metropolitan RTT of 10ms).
	Delay time.Duration
	// Clock drives the medium's delivery timers (default: real time).
	// Federation tests and scenarios share one fake clock across every
	// island MANET and the Internet for deterministic schedules.
	Clock clock.Clock
	// Shards is the backbone network's shard count (see netem.Config.Shards;
	// 0 = GOMAXPROCS).
	Shards int
}

// New creates an empty Internet.
func New(cfg Config) *Internet {
	if cfg.Delay == 0 {
		cfg.Delay = 5 * time.Millisecond
	}
	n := netem.NewNetwork(netem.Config{
		Range:     1e12, // everyone reaches everyone
		BaseDelay: cfg.Delay,
		Clock:     cfg.Clock,
		Shards:    cfg.Shards,
	})
	return &Internet{net: n}
}

// Network exposes the underlying medium (for stats and teardown).
func (i *Internet) Network() *netem.Network { return i.net }

// AddHost attaches a named Internet host with full-mesh routing.
func (i *Internet) AddHost(name netem.NodeID) (*netem.Host, error) {
	h, err := i.net.AddHost(name, netem.Position{})
	if err != nil {
		return nil, fmt.Errorf("internet: %w", err)
	}
	h.SetRouteProvider(FullMesh{})
	return h, nil
}

// RemoveHost detaches a host.
func (i *Internet) RemoveHost(name netem.NodeID) { i.net.RemoveHost(name) }

// RegisterTrunkClient records that vhost (a tunnel client's virtual Internet
// host) is served by gw's trunk endpoint. Gateways call this when a tunnel
// opens; it is the discovery side of inter-gateway media trunking.
func (i *Internet) RegisterTrunkClient(vhost, gw netem.NodeID) {
	i.trunkMu.Lock()
	if i.trunk == nil {
		i.trunk = make(map[netem.NodeID]netem.NodeID)
	}
	i.trunk[vhost] = gw
	i.trunkMu.Unlock()
}

// UnregisterTrunkClient withdraws a tunnel client's trunk mapping, but only
// if gw still owns it (a client may have re-tunnelled through another
// gateway in the meantime).
func (i *Internet) UnregisterTrunkClient(vhost, gw netem.NodeID) {
	i.trunkMu.Lock()
	if cur, ok := i.trunk[vhost]; ok && cur == gw {
		delete(i.trunk, vhost)
	}
	i.trunkMu.Unlock()
}

// TrunkGatewayFor returns the gateway serving a tunnel client's virtual host,
// if any. Allocation-free: it sits on the per-packet gateway data path.
func (i *Internet) TrunkGatewayFor(vhost netem.NodeID) (netem.NodeID, bool) {
	i.trunkMu.RLock()
	gw, ok := i.trunk[vhost]
	i.trunkMu.RUnlock()
	return gw, ok
}

// Close shuts the Internet down.
func (i *Internet) Close() { i.net.Close() }
