// Package siphoc is a library reproduction of "Wireless Ad Hoc VoIP"
// (Stuedi & Alonso, MNCNA @ ACM/IFIP/USENIX Middleware 2007): a SIP
// middleware that lets out-of-the-box VoIP applications place calls in
// mobile ad hoc networks with no centralized SIP server, and transparently
// reach the Internet as soon as any node in the MANET has connectivity.
//
// The package is the public facade over the implementation packages:
//
//   - internal/netem: packet-level MANET emulator (radio range, delay,
//     loss, mobility) replacing the paper's laptop/iPAQ testbed
//   - internal/routing/{aodv,olsr}: the two routing protocols the system
//     supports, with the piggyback extension slot on control messages
//   - internal/slp: MANET SLP — decentralized service location via routing
//     message piggybacking
//   - internal/sip, internal/sdp, internal/rtp: the SIP/SDP/RTP stacks
//   - internal/core: the SIPHoc proxy, Gateway Provider and Connection
//     Provider
//   - internal/internet: the simulated fixed Internet with SIP providers
//   - internal/voip: the softphone user agent
//
// The typical entry point is Scenario: create one, add nodes (each node
// automatically runs the full SIPHoc service set), create phones on nodes,
// and place calls:
//
//	sc, _ := siphoc.NewScenarioWith()
//	defer sc.Close()
//	nodes, _ := sc.Chain(3, 90)
//	alice, _ := nodes[0].NewPhone("alice", "voicehoc.ch")
//	bob, _ := nodes[2].NewPhone("bob", "voicehoc.ch")
//	_ = alice.Register()
//	_ = bob.Register()
//	call, _ := alice.Dial("bob@voicehoc.ch")
//	_ = call.WaitEstablished(10 * time.Second)
package siphoc

import (
	"siphoc/internal/clock"
	"siphoc/internal/core"
	"siphoc/internal/internet"
	"siphoc/internal/netem"
	"siphoc/internal/obs"
	"siphoc/internal/rtp"
	"siphoc/internal/sip"
	"siphoc/internal/slp"
	"siphoc/internal/voip"
)

// Re-exported core types, so users of the facade never have to import the
// internal packages (which the toolchain would reject anyway).
type (
	// NodeID identifies a node on the MANET or the Internet.
	NodeID = netem.NodeID
	// Position is a node's 2-D location in metres.
	Position = netem.Position
	// Phone is a softphone user agent bound to a node.
	Phone = voip.Phone
	// Call is one voice call.
	Call = voip.Call
	// PhoneConfig mirrors a softphone's account settings (paper Fig. 2).
	PhoneConfig = voip.Config
	// MediaStats is the receive-side call-quality snapshot.
	MediaStats = rtp.Stats
	// MediaStream is a handle to one in-flight voice stream; see
	// Call.StartVoice.
	MediaStream = rtp.Stream
	// Provider is a centralized Internet SIP provider.
	Provider = internet.Provider
	// ProviderConfig describes one Internet SIP provider.
	ProviderConfig = internet.ProviderConfig
	// Service is one SLP service registration.
	Service = slp.Service
	// SIPAddr is a SIP transport address (node + port).
	SIPAddr = sip.Addr
	// NetworkStats counts traffic on the radio medium by frame class.
	NetworkStats = netem.Stats
	// SchedStats counts what the scheduler that runs every delivery, timer
	// and media frame has done: tasks run, worker wake-ups and how late the
	// tasks ran.
	SchedStats = clock.SchedStats
	// FaultPlan is a deterministic, seeded schedule of network faults; see
	// FaultScenario for the scenario-level harness built on it.
	FaultPlan = netem.FaultPlan
	// FaultRecord is one executed fault in a plan's replayable log.
	FaultRecord = netem.FaultRecord
	// FaultKind classifies an injected fault.
	FaultKind = netem.FaultKind
	// LinkQuality is a per-link loss/latency override used by fault plans.
	LinkQuality = netem.LinkQuality
	// ProxyStats counts SIPHoc proxy activity.
	ProxyStats = core.ProxyStats
	// GatewayStats counts Gateway Provider activity (tunnels, frames).
	GatewayStats = core.GatewayStats
	// TrunkStats counts inter-gateway trunk multiplexing activity.
	TrunkStats = core.TrunkStats
	// ProviderPool is the sharded provider tier of a federation.
	ProviderPool = internet.ProviderPool
	// PoolConfig sizes a sharded provider tier.
	PoolConfig = internet.PoolConfig
	// PoolStats aggregates provider counters across a pool's shards.
	PoolStats = internet.PoolStats
	// ConnStats counts Connection Provider activity (attaches, frames).
	ConnStats = core.ConnStats
	// SLPStats counts MANET SLP agent activity (lookups, cache hits).
	SLPStats = slp.AgentStats

	// Observer is the scenario-wide observability handle: the metrics
	// registry plus the call tracer. A nil *Observer is the disabled mode
	// (every method no-ops).
	Observer = obs.Observer
	// CallTrace is one call's stitched span timeline; see Call.Trace.
	CallTrace = obs.CallTrace
	// Span is one timed phase inside a call trace.
	Span = obs.Span
	// PhaseDuration is one row of a trace's setup-delay breakdown.
	PhaseDuration = obs.PhaseDuration
	// RegistrySnapshot is a point-in-time copy of the metrics registry.
	RegistrySnapshot = obs.RegistrySnapshot
	// HistogramSnapshot is a latency histogram copy inside a snapshot.
	HistogramSnapshot = obs.HistogramSnapshot
)

// Trace phase names, as they appear in CallTrace spans and breakdowns.
const (
	PhaseSetup          = obs.PhaseSetup
	PhaseSLPResolve     = obs.PhaseSLPResolve
	PhaseRouteDiscovery = obs.PhaseRouteDiscovery
	PhaseGatewayAttach  = obs.PhaseGatewayAttach
	PhaseSIPTransaction = obs.PhaseSIPTransaction
	PhaseSIPLeg         = obs.PhaseSIPLeg
	PhaseMediaStart     = obs.PhaseMediaStart
)

// Call and phone state constants re-exported for switch statements.
const (
	CallSetup       = voip.StateSetup
	CallRinging     = voip.StateRinging
	CallEstablished = voip.StateEstablished
	CallEnded       = voip.StateEnded
	CallFailed      = voip.StateFailed
)

// ErrNoGateway is the typed error surfaced when a node exhausts its gateway
// acquisition budget (or a bounded wait for attachment times out): no usable
// gateway is reachable. Test with errors.Is.
var ErrNoGateway = core.ErrNoGateway
