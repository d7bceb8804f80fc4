package siphoc

// Metrics is the merged observability snapshot of a whole scenario: one call
// replaces the scattered per-component Stats() accessors. The per-node maps
// are keyed by node ID; nodes without the component are absent from the map.
type Metrics struct {
	// Network counts traffic on the radio medium by frame class.
	Network NetworkStats
	// Scheduler counts the radio network's scheduler: tasks run, worker
	// wake-ups, and the histogram of how late each task ran.
	Scheduler SchedStats
	// Proxies holds each node's SIPHoc proxy counters.
	Proxies map[NodeID]ProxyStats
	// Gateways holds each gateway node's Gateway Provider counters.
	Gateways map[NodeID]GatewayStats
	// ConnProviders holds each node's Connection Provider counters.
	ConnProviders map[NodeID]ConnStats
	// SLP holds each node's MANET SLP agent counters.
	SLP map[NodeID]SLPStats
	// Registry is the scenario-wide metrics registry (named counters,
	// gauges and latency histograms recorded by the instrumentation
	// hooks). Zero when the scenario was built WithoutObservability.
	Registry RegistrySnapshot
}

// Metrics captures the merged snapshot of every node's components plus the
// shared metrics registry. Safe to call concurrently with live traffic: all
// underlying counters are atomics.
func (s *Scenario) Metrics() Metrics {
	m := Metrics{
		Network:       s.net.Stats(),
		Scheduler:     s.net.Sched().Stats(),
		Proxies:       make(map[NodeID]ProxyStats),
		Gateways:      make(map[NodeID]GatewayStats),
		ConnProviders: make(map[NodeID]ConnStats),
		SLP:           make(map[NodeID]SLPStats),
		Registry:      s.obs.Snapshot(),
	}
	for _, n := range s.Nodes() {
		id := n.ID()
		if p := n.Proxy(); p != nil {
			m.Proxies[id] = p.Stats()
		}
		if g := n.Gateway(); g != nil {
			m.Gateways[id] = g.Stats()
		}
		if c := n.ConnectionProvider(); c != nil {
			m.ConnProviders[id] = c.Stats()
		}
		if a := n.SLP(); a != nil {
			m.SLP[id] = a.Stats()
		}
	}
	return m
}
