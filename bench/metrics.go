package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one reported number. BENCHMARK.json lists the same names,
// units and bounds; TestManifestMatchesTables keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// maxBound is the largest bound the driver's contract allows.
const maxBound = 0.25

// endToEnd is what a user of the system sees, measured with observability
// off. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"setup_delay_p50_ms", "ms", "lower", 0.25},
	{"media_delay_p50_ms", "ms", "lower", 0.25},
	{"mos_p50", "MOS", "higher", 0.03},
	{"media_delivery_ratio", "ratio", "higher", 0.01},
	{"call_success_ratio", "ratio", "higher", 0.005},
	{"air_bytes_per_call", "B", "lower", 0.15},
	{"allocs_per_call", "count", "lower", 0.15},
	{"live_heap_mb", "MB", "lower", 0.20},
}

// perLayer is the ledger of the traced run: counter deltas over a window with
// observability on, trace phases, isolated layer drivers (layers.go) and the
// harness's own health.
var perLayer = []metricDef{
	{Name: "netem.frames_per_call", Unit: "count", Better: "lower"},
	{Name: "netem.deliveries_per_call", Unit: "count", Better: "lower"},
	{Name: "netem.routing_bytes_share", Unit: "ratio", Better: "lower"},
	{Name: "netem.lost_ratio", Unit: "ratio", Better: "lower"},
	{Name: "netem.forwards_per_call", Unit: "count", Better: "lower"},
	{Name: "netem.drops_per_call", Unit: "count", Better: "lower"},
	{Name: "netem.unicast_ns_172", Unit: "ns", Better: "lower"},
	{Name: "netem.unicast_allocs_172", Unit: "count", Better: "lower"},
	{Name: "netem.unicast_ns_900", Unit: "ns", Better: "lower"},
	{Name: "netem.unicast_allocs_900", Unit: "count", Better: "lower"},
	{Name: "netem.broadcast_ns_per_delivery", Unit: "ns", Better: "lower"},

	{Name: "routing.envelope_parse_ns", Unit: "ns", Better: "lower"},
	{Name: "routing.envelope_parse_allocs", Unit: "count", Better: "lower"},
	{Name: "routing.table_replace_ns", Unit: "ns", Better: "lower"},
	{Name: "routing.table_lookup_ns", Unit: "ns", Better: "lower"},

	{Name: "aodv.rreq_per_call", Unit: "count", Better: "lower"},
	{Name: "aodv.discoveries_per_call", Unit: "count", Better: "lower"},
	{Name: "aodv.discovery_failed", Unit: "count", Better: "lower"},
	{Name: "aodv.hello_per_node_s", Unit: "1/s", Better: "lower"},
	{Name: "aodv.cold_discovery_ms", Unit: "ms", Better: "lower"},

	{Name: "olsr.hello_per_node_s", Unit: "1/s", Better: "lower"},
	{Name: "olsr.tc_sent_per_node_s", Unit: "1/s", Better: "lower"},
	{Name: "olsr.tc_fwd_per_node_s", Unit: "1/s", Better: "lower"},
	{Name: "olsr.recompute_per_node_s", Unit: "1/s", Better: "lower"},
	{Name: "olsr.recompute_skipped_ratio", Unit: "ratio", Better: "higher"},
	{Name: "olsr.convergence_ms", Unit: "ms", Better: "lower"},

	{Name: "slp.lookups_per_call", Unit: "count", Better: "lower"},
	{Name: "slp.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "slp.adverts_accepted_per_node_s", Unit: "1/s", Better: "lower"},
	{Name: "slp.queries_relayed_per_s", Unit: "1/s", Better: "lower"},
	{Name: "slp.cold_lookup_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "slp.incoming_ns", Unit: "ns", Better: "lower"},
	{Name: "slp.incoming_allocs", Unit: "count", Better: "lower"},
	{Name: "slp.outgoing_ns", Unit: "ns", Better: "lower"},
	{Name: "slp.outgoing_allocs", Unit: "count", Better: "lower"},
	{Name: "slp.lookup_cached_ns", Unit: "ns", Better: "lower"},

	{Name: "sip.invites_per_call", Unit: "count", Better: "lower"},
	{Name: "sip.retransmits_per_call", Unit: "count", Better: "lower"},
	{Name: "sip.tx_timeouts", Unit: "count", Better: "lower"},
	{Name: "sip.transaction_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "sip.parse_invite_ns", Unit: "ns", Better: "lower"},
	{Name: "sip.parse_invite_allocs", Unit: "count", Better: "lower"},
	{Name: "sip.append_invite_ns", Unit: "ns", Better: "lower"},
	{Name: "sip.append_invite_allocs", Unit: "count", Better: "lower"},
	{Name: "sip.clone_invite_ns", Unit: "ns", Better: "lower"},
	{Name: "sip.clone_invite_allocs", Unit: "count", Better: "lower"},

	{Name: "sdp.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "sdp.marshal_ns", Unit: "ns", Better: "lower"},

	{Name: "core.proxy.requests_routed_per_call", Unit: "count", Better: "lower"},
	{Name: "core.proxy.slp_resolutions_per_call", Unit: "count", Better: "lower"},
	{Name: "core.proxy.internet_routed_per_call", Unit: "count", Better: "lower"},
	{Name: "core.proxy.unresolved", Unit: "count", Better: "lower"},
	{Name: "core.proxy.slp_evictions", Unit: "count", Better: "lower"},
	{Name: "core.resolver.resolve_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.gateway.tunnel_frames_per_call", Unit: "count", Better: "lower"},
	{Name: "core.connp.attach_ms", Unit: "ms", Better: "lower"},
	{Name: "core.connp.failovers", Unit: "count", Better: "lower"},

	{Name: "voip.setup_delay_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "voip.setup_p50_ms.hops_min", Unit: "ms", Better: "lower"},
	{Name: "voip.setup_p50_ms.hops_max", Unit: "ms", Better: "lower"},
	{Name: "voip.inbound_setup_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "voip.teardown_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "voip.peak_concurrent_calls", Unit: "count", Better: "lower"},
	{Name: "voip.unconfirmed_callee_ratio", Unit: "ratio", Better: "lower"},

	{Name: "rtp.frames_per_call", Unit: "count", Better: "higher"},
	{Name: "rtp.jitter_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "rtp.max_delay_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "rtp.allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "rtp.append_ns", Unit: "ns", Better: "lower"},
	{Name: "rtp.append_allocs", Unit: "count", Better: "lower"},
	{Name: "rtp.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "rtp.parse_allocs", Unit: "count", Better: "lower"},
	{Name: "rtp.jitterbuf_put_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "rtp.jitterbuf_put_pop_allocs", Unit: "count", Better: "lower"},
	{Name: "rtp.pacer_late_p99_us", Unit: "us", Better: "lower"},

	{Name: "internet.provider_requests_per_call", Unit: "count", Better: "lower"},

	{Name: "obs.cpu_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "obs.allocs_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "obs.spans_per_call", Unit: "count", Better: "lower"},
	{Name: "obs.span_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.counter_inc_ns", Unit: "ns", Better: "lower"},

	{Name: "clock.sched_after_ns", Unit: "ns", Better: "lower"},
	{Name: "clock.sched_after_allocs", Unit: "count", Better: "lower"},
	{Name: "clock.sched_late_p99_us", Unit: "us", Better: "lower"},
	{Name: "clock.wall_per_sim", Unit: "ratio", Better: "lower"},

	{Name: "setup.build_ms", Unit: "ms", Better: "lower"},
	{Name: "setup.converge_ms", Unit: "ms", Better: "lower"},
	{Name: "setup.resolve_ms", Unit: "ms", Better: "lower"},
	{Name: "setup.warmup_ms", Unit: "ms", Better: "lower"},

	{Name: "gen.window_attempts", Unit: "count", Better: "lower"},
	{Name: "gen.late_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.offered_calls_per_s", Unit: "1/s", Better: "higher"},
	{Name: "host.cpu_util", Unit: "cores", Better: "lower"},
	{Name: "host.cpu_sys_share", Unit: "ratio", Better: "lower"},
	{Name: "host.cpu_ms_per_call", Unit: "ms", Better: "lower"},
	{Name: "host.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func allMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// percentile returns the p-th percentile (0 < p ≤ 100) of xs by the
// nearest-rank rule, and 0 for an empty sample. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	return xs[max(rank, 1)-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailRank is the percentile a tail latency is read at: the highest one with
// at least ten of the n samples beyond it, and p95 at most. voice_media's 60
// calls support p83, gateway_calls' 134 outbound calls p92.5, the other two
// workloads p95.
func tailRank(n int) float64 {
	return max(50, min(95, 100*(1-10/float64(n))))
}

// ratio is num/den, and 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// setupDelays returns the set-up delays in ms of the calls keep selects. A
// failed call is already recorded at callTimeout, so it counts as missing
// any limit.
func setupDelays(calls []callRecord, keep func(callRecord) bool) []float64 {
	var out []float64
	for _, c := range calls {
		if keep(c) {
			out = append(out, ms(c.setup))
		}
	}
	return out
}

// summarise turns one window and the set-up that preceded it into named
// metrics and the sample counts behind the percentiles. It returns every
// end-to-end metric except setup_s and every window-derived per-layer metric;
// the caller keeps the set its run mode reports.
func summarise(w *workload, d *deployment, set setupReport, win windowReport) (metrics map[string]float64, samples map[string]int) {
	m, n := map[string]float64{}, map[string]int{}
	calls := float64(len(win.calls))
	nodes := float64(len(d.nodes))
	b, a := win.before, win.after
	wall := a.wall.Sub(b.wall).Seconds()

	ok, unconfirmed := 0, 0
	var mediaDelay, mos, jitter, maxDelay, teardown, sipTx, resolve []float64
	var received, spans int64
	for _, c := range win.calls {
		if c.failure != "" {
			continue
		}
		ok++
		if c.unconfirmed {
			unconfirmed++
		}
		teardown = append(teardown, ms(c.teardown))
		spans += int64(c.spans)
		if c.spans > 0 {
			sipTx = append(sipTx, ms(c.sipTransaction))
			resolve = append(resolve, ms(c.resolve))
		}
		for _, dir := range c.media {
			received += dir.Received
			mediaDelay = append(mediaDelay, ms(dir.AvgDelay))
			maxDelay = append(maxDelay, ms(dir.MaxDelay))
			jitter = append(jitter, ms(dir.Jitter))
			mos = append(mos, dir.MOS)
		}
	}
	// A gateway workload mixes two modes an order of magnitude apart
	// (fall-through to DNS outbound, a provider binding inbound), so its
	// headline percentiles are over outbound calls and inbound has its own.
	outbound := setupDelays(win.calls, func(c callRecord) bool { return !d.pairs[c.pair].inbound })
	inbound := setupDelays(win.calls, func(c callRecord) bool { return d.pairs[c.pair].inbound })
	// The paper's Figure 5/6 axis, at its two ends: the shortest and the
	// longest paths this workload's topology offers.
	minHops, maxHops := d.pairs[0].hops, d.pairs[0].hops
	for _, p := range d.pairs {
		minHops, maxHops = min(minHops, p.hops), max(maxHops, p.hops)
	}
	near := setupDelays(win.calls, func(c callRecord) bool { p := d.pairs[c.pair]; return !p.inbound && p.hops == minHops })
	far := setupDelays(win.calls, func(c callRecord) bool { p := d.pairs[c.pair]; return !p.inbound && p.hops == maxHops })

	m["setup_delay_p50_ms"], n["setup_delay_p50_ms"] = median(outbound), len(outbound)
	m["voip.setup_delay_tail_ms"], n["voip.setup_delay_tail_ms"] = percentile(outbound, tailRank(len(outbound))), len(outbound)
	m["media_delay_p50_ms"], n["media_delay_p50_ms"] = median(mediaDelay), len(mediaDelay)
	m["mos_p50"], n["mos_p50"] = median(mos), len(mos)
	m["media_delivery_ratio"] = ratio(float64(received), 2*float64(w.frames)*calls)
	m["call_success_ratio"] = ratio(float64(ok), calls)
	m["air_bytes_per_call"] = float64(a.air.TotalBytes()-b.air.TotalBytes()) / calls
	m["allocs_per_call"] = float64(a.mem.Mallocs-b.mem.Mallocs) / calls
	m["live_heap_mb"] = win.liveHeapMB

	frames := float64(a.air.TotalFrames() - b.air.TotalFrames())
	m["netem.frames_per_call"] = frames / calls
	m["netem.deliveries_per_call"] = float64(a.air.Deliveries-b.air.Deliveries) / calls
	m["netem.routing_bytes_share"] = ratio(float64(a.air.RoutingBytes-b.air.RoutingBytes), float64(a.air.TotalBytes()-b.air.TotalBytes()))
	m["netem.lost_ratio"] = ratio(float64(a.air.Lost-b.air.Lost), float64(a.air.Deliveries-b.air.Deliveries))
	m["netem.forwards_per_call"] = float64(a.hosts.forwarded-b.hosts.forwarded) / calls
	m["netem.drops_per_call"] = float64(a.hosts.dropped-b.hosts.dropped) / calls

	m["aodv.rreq_per_call"] = float64(a.aodv.RREQSent-b.aodv.RREQSent) / calls
	m["aodv.discoveries_per_call"] = float64(a.aodv.Discovered-b.aodv.Discovered) / calls
	m["aodv.discovery_failed"] = float64(a.aodv.Failed - b.aodv.Failed)
	m["aodv.hello_per_node_s"] = float64(a.aodv.HelloSent-b.aodv.HelloSent) / nodes / wall

	m["olsr.hello_per_node_s"] = float64(a.olsr.HelloSent-b.olsr.HelloSent) / nodes / wall
	m["olsr.tc_sent_per_node_s"] = float64(a.olsr.TCSent-b.olsr.TCSent) / nodes / wall
	m["olsr.tc_fwd_per_node_s"] = float64(a.olsr.TCFwd-b.olsr.TCFwd) / nodes / wall
	recomputed, skipped := float64(a.olsr.Recompute-b.olsr.Recompute), float64(a.olsr.RecomputeSkipped-b.olsr.RecomputeSkipped)
	m["olsr.recompute_per_node_s"] = recomputed / nodes / wall
	m["olsr.recompute_skipped_ratio"] = ratio(skipped, recomputed+skipped)

	m["slp.lookups_per_call"] = float64(a.slp.Lookups-b.slp.Lookups) / calls
	m["slp.cache_hit_ratio"] = ratio(float64(a.slp.CacheHits-b.slp.CacheHits), float64(a.slp.Lookups-b.slp.Lookups))
	m["slp.adverts_accepted_per_node_s"] = float64(a.slp.AdvertsAccepted-b.slp.AdvertsAccepted) / nodes / wall
	m["slp.queries_relayed_per_s"] = float64(a.slp.QueriesRelayed-b.slp.QueriesRelayed) / wall
	m["slp.cold_lookup_p50_ms"], n["slp.cold_lookup_p50_ms"] = median(allMs(set.coldLookups)), len(set.coldLookups)

	m["sip.invites_per_call"] = float64(a.registry["sip.tx.invites"]-b.registry["sip.tx.invites"]) / calls
	m["sip.retransmits_per_call"] = float64(a.registry["sip.retransmits"]-b.registry["sip.retransmits"]) / calls
	m["sip.tx_timeouts"] = float64(a.registry["sip.tx.timeouts"] - b.registry["sip.tx.timeouts"])
	m["sip.transaction_p50_ms"], n["sip.transaction_p50_ms"] = median(sipTx), len(sipTx)

	m["core.proxy.requests_routed_per_call"] = float64(a.proxy.RequestsRouted-b.proxy.RequestsRouted) / calls
	m["core.proxy.slp_resolutions_per_call"] = float64(a.proxy.SLPResolutions-b.proxy.SLPResolutions) / calls
	m["core.proxy.internet_routed_per_call"] = float64(a.proxy.InternetRouted-b.proxy.InternetRouted) / calls
	m["core.proxy.unresolved"] = float64(a.proxy.Unresolved - b.proxy.Unresolved)
	m["core.proxy.slp_evictions"] = float64(a.proxy.SLPEvictions - b.proxy.SLPEvictions)
	m["core.resolver.resolve_p50_ms"], n["core.resolver.resolve_p50_ms"] = median(resolve), len(resolve)
	m["core.gateway.tunnel_frames_per_call"] = float64(a.gateway.FramesIn+a.gateway.FramesOut-b.gateway.FramesIn-b.gateway.FramesOut) / calls
	m["core.connp.failovers"] = float64(a.conn.Failovers - b.conn.Failovers)

	m["voip.setup_p50_ms.hops_min"], n["voip.setup_p50_ms.hops_min"] = median(near), len(near)
	m["voip.setup_p50_ms.hops_max"], n["voip.setup_p50_ms.hops_max"] = median(far), len(far)
	if len(inbound) > 0 {
		m["voip.inbound_setup_p50_ms"], n["voip.inbound_setup_p50_ms"] = median(inbound), len(inbound)
	}
	m["voip.teardown_p50_ms"], n["voip.teardown_p50_ms"] = median(teardown), len(teardown)
	m["voip.peak_concurrent_calls"] = float64(win.peak)
	m["voip.unconfirmed_callee_ratio"] = ratio(float64(unconfirmed), float64(ok))

	m["rtp.frames_per_call"] = float64(received) / calls
	m["rtp.jitter_p50_ms"], n["rtp.jitter_p50_ms"] = median(jitter), len(jitter)
	m["rtp.max_delay_p95_ms"], n["rtp.max_delay_p95_ms"] = percentile(maxDelay, 95), len(maxDelay)
	m["rtp.allocs_per_frame"] = ratio(float64(a.mem.Mallocs-b.mem.Mallocs), float64(received))

	m["internet.provider_requests_per_call"] = float64(a.provider.Registers+a.provider.Invites+a.provider.Forwarded-
		b.provider.Registers-b.provider.Invites-b.provider.Forwarded) / calls

	m["obs.spans_per_call"] = ratio(float64(spans), float64(ok))
	m["clock.wall_per_sim"] = ratio(wall, a.sim.Sub(b.sim).Seconds())

	m["setup.build_ms"] = ms(set.build)
	m["setup.converge_ms"] = ms(set.converge)
	m["setup.resolve_ms"] = ms(set.resolve)
	m["setup.warmup_ms"] = ms(set.warmup)

	late := allMs(win.late)
	m["gen.late_p95_ms"], n["gen.late_p95_ms"] = percentile(late, 95), len(late)
	m["gen.late_p99_ms"], n["gen.late_p99_ms"] = percentile(late, 99), len(late)
	// First dispatch to last dispatch, as it happened rather than as planned.
	dispatchSpan := (calls-1)/w.rate + (win.late[len(win.late)-1] - win.late[0]).Seconds()
	m["gen.offered_calls_per_s"] = ratio(calls-1, dispatchSpan)
	m["host.cpu_util"] = (a.cpu - b.cpu).Seconds() / wall
	m["host.cpu_ms_per_call"] = ms(a.cpu-b.cpu) / calls
	m["host.cpu_sys_share"] = 1 - ratio(float64(a.cpuUser-b.cpuUser), float64(a.cpu-b.cpu))
	m["host.gc_cycles"] = float64(a.mem.NumGC - b.mem.NumGC)
	m["host.gc_pause_ms"] = float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs) / 1e6

	for name, v := range d.own {
		m[name] = v
	}
	return m, n
}
