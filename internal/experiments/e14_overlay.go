package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"siphoc"
)

// E14Row is one resolver backend's measurements.
type E14Row struct {
	// Backend names the resolution path exercised ("manet-slp",
	// "provider-tier", "p2p-overlay").
	Backend string
	// Calls is the number of established calls in the leg.
	Calls int
	// SetupP50/SetupP99 are the call setup delay percentiles.
	SetupP50, SetupP99 time.Duration
	// SLP/Overlay/Provider/Errors are the proxies' resolution counters
	// summed across the leg (which backend actually answered).
	SLP, Overlay, Provider, Errors int64
}

// E14 compares the three resolver backends of the proxy's chain head to
// head: MANET SLP inside one island, the sharded provider tier (DNS
// fallback) across islands, and the P2P overlay registrar (the Kademlia DHT
// of ROADMAP item 3) across islands with two of its nodes crashing
// mid-workload. The overlay leg must resolve every call through the DHT —
// zero provider fallbacks, zero typed resolver failures — despite the churn,
// because bindings live on K=3 replicas.
func E14(w io.Writer) error {
	header(w, "E14: resolver backends — MANET SLP vs provider tier vs P2P overlay (ROADMAP item 3)")
	rows, err := RunE14(8)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "three resolution paths for the same question (AOR -> next hop):\n")
	fmt.Fprintf(w, "  manet-slp      intra-island, epidemic SLP cache\n")
	fmt.Fprintf(w, "  provider-tier  cross-island via DNS + sharded registrar pool\n")
	fmt.Fprintf(w, "  p2p-overlay    cross-island via Kademlia DHT, 2 of 8 nodes crashed mid-run\n\n")
	fmt.Fprintf(w, "%-14s %6s %12s %12s %6s %8s %9s %7s\n",
		"backend", "calls", "setup p50", "setup p99", "slp", "overlay", "provider", "errors")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %6d %12v %12v %6d %8d %9d %7d\n",
			r.Backend, r.Calls,
			r.SetupP50.Round(100*time.Microsecond), r.SetupP99.Round(100*time.Microsecond),
			r.SLP, r.Overlay, r.Provider, r.Errors)
	}
	fmt.Fprintf(w, "\nresult: every cross-island call in the overlay leg resolved through the\n")
	fmt.Fprintf(w, "DHT — no central registrar consulted — and K=3 replication absorbed the\n")
	fmt.Fprintf(w, "loss of two overlay nodes without a failed lookup\n")
	return nil
}

// RunE14 measures the three backends with the given cross-island call
// concurrency and returns one row per backend.
func RunE14(concurrent int) ([]E14Row, error) {
	slpRow, err := runE14SLP(4)
	if err != nil {
		return nil, fmt.Errorf("manet-slp leg: %w", err)
	}
	provRow, err := runE14Federation("provider-tier", concurrent, false)
	if err != nil {
		return nil, fmt.Errorf("provider-tier leg: %w", err)
	}
	dhtRow, err := runE14Federation("p2p-overlay", concurrent, true)
	if err != nil {
		return nil, fmt.Errorf("p2p-overlay leg: %w", err)
	}
	if dhtRow.Overlay == 0 {
		return nil, fmt.Errorf("overlay leg resolved nothing through the DHT: %+v", dhtRow)
	}
	if dhtRow.Provider != 0 {
		return nil, fmt.Errorf("overlay leg leaked %d resolutions to the provider tier", dhtRow.Provider)
	}
	if dhtRow.Errors != 0 {
		return nil, fmt.Errorf("overlay leg hit %d resolver failures under churn", dhtRow.Errors)
	}
	return []E14Row{slpRow, provRow, dhtRow}, nil
}

// runE14SLP places sequential intra-MANET calls on a 3-node chain: the AOR
// resolves from the caller's epidemic SLP cache, never leaving the island.
func runE14SLP(calls int) (E14Row, error) {
	row := E14Row{Backend: "manet-slp", Calls: calls}
	sc, err := siphoc.NewScenarioWith()
	if err != nil {
		return row, err
	}
	defer sc.Close()
	nodes, err := sc.Chain(3, 90)
	if err != nil {
		return row, err
	}
	alice, _, err := setupEndpoints(nodes)
	if err != nil {
		return row, err
	}
	if _, err := nodes[0].SLP().Lookup("sip", "bob@voicehoc.ch", waitLong); err != nil {
		return row, fmt.Errorf("SLP never converged: %w", err)
	}
	setups := make([]time.Duration, 0, calls)
	for range calls {
		d, err := placeCall(alice)
		if err != nil {
			return row, err
		}
		setups = append(setups, d)
	}
	sort.Slice(setups, func(i, j int) bool { return setups[i] < setups[j] })
	row.SetupP50 = setups[len(setups)/2]
	row.SetupP99 = setups[len(setups)-1]
	for _, ps := range sc.Metrics().Proxies {
		row.SLP += ps.SLPResolutions
		row.Overlay += ps.OverlayRouted
		row.Provider += ps.InternetRouted
		row.Errors += ps.ResolverErrors
	}
	return row, nil
}

// runE14Federation runs the cross-island call workload on a two-island
// federation; with the overlay enabled it also crashes two DHT nodes while
// the calls ramp, so the leg doubles as a churn check on the live system
// (the seeded property test in internal/overlay pins the same behaviour in
// virtual time).
func runE14Federation(name string, concurrent int, overlay bool) (E14Row, error) {
	row := E14Row{Backend: name}
	cfg := siphoc.FederationConfig{
		Islands:           2,
		GatewaysPerIsland: 1,
		ClientsPerIsland:  2,
	}
	if overlay {
		cfg.Overlay = true
		cfg.OverlayNodes = 8
	}
	fed, err := siphoc.NewFederationScenario(cfg)
	if err != nil {
		return row, err
	}
	defer fed.Close()
	if err := fed.WaitAttached(30 * time.Second); err != nil {
		return row, err
	}

	var fs *siphoc.FaultScenario
	if overlay {
		// Kill a quarter of the DHT while the workload ramps; replicated
		// bindings must keep resolving.
		fs = siphoc.NewFaultScenario(fed.Island(0), 7)
		dht := fed.Overlay()
		fs.Plan().At(300*time.Millisecond, "crash 2 of 8 overlay nodes", func() {
			dht[1].Close()
			dht[2].Close()
		})
		if err := fs.Run(); err != nil {
			return row, err
		}
	}

	gen := fed.NewCallGenerator(siphoc.CallGenConfig{
		Concurrent:  concurrent,
		VoiceFrames: 5,
	})
	rep, err := gen.Run()
	if err != nil {
		return row, err
	}
	if fs != nil {
		fs.Wait()
	}
	if rep.Established != rep.Attempted || rep.Failed != 0 {
		return row, fmt.Errorf("calls: %d/%d established, %d failed (%v)",
			rep.Established, rep.Attempted, rep.Failed, rep.FailureReasons)
	}
	row.Calls = rep.Established
	row.SetupP50 = rep.SetupP50
	row.SetupP99 = rep.SetupP99
	for _, sc := range fed.Islands() {
		for _, ps := range sc.Metrics().Proxies {
			row.SLP += ps.SLPResolutions
			row.Overlay += ps.OverlayRouted
			row.Provider += ps.InternetRouted
			row.Errors += ps.ResolverErrors
		}
	}
	return row, nil
}
