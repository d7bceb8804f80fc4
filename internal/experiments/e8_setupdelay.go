package experiments

import (
	"fmt"
	"io"
	"time"

	"siphoc"
	"siphoc/internal/clock"
)

// E8Result is one measurement row of the setup-delay experiment.
type E8Result struct {
	Hops     int
	AODVCold time.Duration
	AODVWarm time.Duration
	OLSR     time.Duration
	// ColdPhases decomposes the cold-AODV setup delay into its trace
	// phases (set-up delay vs. hops, the paper's §4/§6 scalability
	// claim): obs.PhaseSLPResolve, obs.PhaseRouteDiscovery,
	// obs.PhaseSIPTransaction.
	ColdPhases map[string]time.Duration
}

// E8 quantifies the scalability dimension the paper defers to future work
// ("we plan to explore the scalability of the system as the number of nodes
// grows"): SIP session establishment delay as a function of hop count, for
// reactive (AODV, cold and warm routes) and proactive (OLSR, converged)
// routing.
//
// Expected shape: delay grows roughly linearly with hops; cold AODV pays an
// extra route-discovery round trip that warm AODV and converged OLSR avoid.
func E8(w io.Writer) error {
	header(w, "E8: session establishment delay vs hop count")
	results, err := RunE8([]int{1, 2, 3, 4, 5, 6})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-6s %14s %14s %14s\n", "hops", "AODV cold", "AODV warm", "OLSR")
	for _, r := range results {
		fmt.Fprintf(w, "%-6d %14v %14v %14v\n",
			r.Hops, r.AODVCold.Round(100*time.Microsecond),
			r.AODVWarm.Round(100*time.Microsecond), r.OLSR.Round(100*time.Microsecond))
	}
	fmt.Fprintf(w, "\ncold-AODV breakdown from call traces (paper §4/§6: set-up delay vs. hops):\n")
	fmt.Fprintf(w, "%-6s %14s %16s %16s\n", "hops", "slp.resolve", "route.discovery", "sip.transaction")
	for _, r := range results {
		fmt.Fprintf(w, "%-6d %14v %16v %16v\n", r.Hops,
			r.ColdPhases[siphoc.PhaseSLPResolve].Round(100*time.Microsecond),
			r.ColdPhases[siphoc.PhaseRouteDiscovery].Round(100*time.Microsecond),
			r.ColdPhases[siphoc.PhaseSIPTransaction].Round(100*time.Microsecond))
	}
	fmt.Fprintf(w, "\nshape check: cold AODV > warm AODV wherever the trace shows route\n")
	fmt.Fprintf(w, "discovery actually ran (at 1 hop, hellos may pre-establish the route);\n")
	fmt.Fprintf(w, "delay grows with distance for all variants.\n")
	for _, r := range results {
		// Where the trace shows no discovery round, hellos had made the
		// route and the cold call was a warm one.
		if r.ColdPhases[siphoc.PhaseRouteDiscovery] <= 0 {
			continue
		}
		if r.AODVCold <= r.AODVWarm {
			return fmt.Errorf("hops=%d: cold (%v) not slower than warm (%v)", r.Hops, r.AODVCold, r.AODVWarm)
		}
	}
	if last, first := results[len(results)-1], results[0]; last.AODVWarm <= first.AODVWarm {
		return fmt.Errorf("warm setup delay did not grow with hops: %v at %d hops vs %v at %d",
			last.AODVWarm, last.Hops, first.AODVWarm, first.Hops)
	}
	return nil
}

// RunE8 measures the setup delays at the given hop counts, one call of each
// kind per point: in virtual time a point reads the same on every run.
func RunE8(hopCounts []int) ([]E8Result, error) {
	results := make([]E8Result, 0, len(hopCounts))
	for _, hops := range hopCounts {
		r := E8Result{Hops: hops, ColdPhases: make(map[string]time.Duration)}
		cold, warm, phases, err := measureAODV(hops)
		if err != nil {
			return nil, fmt.Errorf("aodv %d hops: %w", hops, err)
		}
		r.AODVCold, r.AODVWarm = cold, warm
		for _, pd := range phases {
			r.ColdPhases[pd.Phase] += pd.Duration
		}
		if r.OLSR, err = measureOLSR(hops); err != nil {
			return nil, fmt.Errorf("olsr %d hops: %w", hops, err)
		}
		results = append(results, r)
	}
	return results, nil
}

// measureAODV sets up a fresh chain and measures the first (cold-route) and
// second (warm-route) call setup delays; the cold call additionally yields
// its trace-derived phase breakdown.
func measureAODV(hops int) (cold, warm time.Duration, phases []siphoc.PhaseDuration, err error) {
	sc, err := newScenario()
	if err != nil {
		return 0, 0, nil, err
	}
	defer sc.Close()
	nodes, err := sc.Chain(hops+1, 90)
	if err != nil {
		return 0, 0, nil, err
	}
	alice, err := setupEndpoints(nodes)
	if err != nil {
		return 0, 0, nil, err
	}
	// Let the SLP advert reach the caller so the measurement isolates the
	// routing + SIP cost, with the SLP cache warm (the steady state the
	// paper's epidemics produce).
	if _, err := nodes[0].SLP().Lookup("sip", "bob@voicehoc.ch", waitLong); err != nil {
		return 0, 0, nil, fmt.Errorf("SLP never converged: %w", err)
	}
	cold, phases, err = placeTracedCall(alice)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("cold call: %w", err)
	}
	warm, err = placeCall(alice)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("warm call: %w", err)
	}
	return cold, warm, phases, nil
}

func measureOLSR(hops int) (time.Duration, error) {
	sc, err := newScenario(siphoc.WithRoutingKind(siphoc.RoutingOLSR))
	if err != nil {
		return 0, err
	}
	defer sc.Close()
	nodes, err := sc.Chain(hops+1, 90)
	if err != nil {
		return 0, err
	}
	alice, err := setupEndpoints(nodes)
	if err != nil {
		return 0, err
	}
	if _, err := nodes[0].SLP().Lookup("sip", "bob@voicehoc.ch", waitLong); err != nil {
		return 0, fmt.Errorf("SLP never converged: %w", err)
	}
	// Wait for proactive routing to converge end to end in both directions:
	// the INVITE needs the way there and its responses the way back. Each
	// wait ends in the recompute that installs its route.
	ends := [2]*siphoc.Node{nodes[0], nodes[len(nodes)-1]}
	var (
		gates  [2]clock.Gate
		routed [2]bool
	)
	for i, from := range ends {
		gates[i].Init(sc.Clock())
		from.Routing().RequestRoute(ends[1-i].ID(), func(ok bool) {
			routed[i] = ok
			gates[i].Open()
		})
	}
	for i := range gates {
		clock.Wait("E8 OLSR route", -1, &gates[i])
		if !routed[i] {
			return 0, fmt.Errorf("OLSR never converged over %d hops", hops)
		}
	}
	return placeCall(alice)
}

// setupEndpoints registers alice on the first node and bob on the last.
func setupEndpoints(nodes []*siphoc.Node) (*siphoc.Phone, error) {
	alice, err := nodes[0].NewPhone("alice", "voicehoc.ch")
	if err != nil {
		return nil, err
	}
	bob, err := nodes[len(nodes)-1].NewPhone("bob", "voicehoc.ch")
	if err != nil {
		return nil, err
	}
	if err := alice.Register(); err != nil {
		return nil, err
	}
	if err := bob.Register(); err != nil {
		return nil, err
	}
	return alice, nil
}

func placeCall(caller *siphoc.Phone) (time.Duration, error) {
	d, _, err := placeTracedCall(caller)
	return d, err
}

// placeTracedCall places one call and returns both the setup delay and the
// trace-derived breakdown of the setup window (which tiles the window
// exactly: the phase durations sum to the traced setup time).
func placeTracedCall(caller *siphoc.Phone) (time.Duration, []siphoc.PhaseDuration, error) {
	call, err := caller.Dial("bob@voicehoc.ch")
	if err != nil {
		return 0, nil, err
	}
	if err := call.WaitEstablished(20 * time.Second); err != nil {
		return 0, nil, err
	}
	d := call.SetupDuration()
	breakdown := call.Trace().SetupBreakdown()
	if err := call.Hangup(); err != nil {
		return 0, nil, err
	}
	return d, breakdown, nil
}
