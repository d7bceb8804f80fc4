package siphoc

import (
	"sync"
	"testing"
	"time"
)

func hasPhase(tr *CallTrace, phase string) bool {
	for _, sp := range tr.Spans {
		if sp.Phase == phase {
			return true
		}
	}
	return false
}

// TestCallTraceThreeHop is the trace-integrity check of the observability
// layer: a call across a 3-hop chain must yield a timeline with at least four
// distinct phases whose setup breakdown tiles the setup window exactly and
// agrees with the latency the caller observed via WaitEstablished.
func TestCallTraceThreeHop(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind RoutingKind
	}{
		{"AODV", RoutingAODV},
		{"OLSR", RoutingOLSR},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, nodes := newChainScenario(t, 3, WithRoutingKind(tc.kind))
			if sc.Observer() == nil {
				t.Fatal("observability should be enabled by default")
			}
			alice := registerPhone(t, nodes[0], "alice")
			registerPhone(t, nodes[2], "bob")

			call, err := alice.Dial("bob@" + domain)
			if err != nil {
				t.Fatal(err)
			}
			if err := call.WaitEstablished(callTimeout); err != nil {
				t.Fatal(err)
			}
			// Stream a little voice so the callee's media.start span (ended
			// by the first received RTP packet) closes, then poll the trace
			// until it shows up.
			call.SendVoice(5)
			var tr *CallTrace
			deadline := time.Now().Add(5 * time.Second)
			for {
				tr = call.Trace()
				if hasPhase(tr, PhaseMediaStart) || time.Now().After(deadline) {
					break
				}
				time.Sleep(20 * time.Millisecond)
			}

			if tr.Empty() {
				t.Fatal("trace is empty")
			}
			for _, phase := range []string{PhaseSetup, PhaseSLPResolve, PhaseSIPLeg, PhaseMediaStart} {
				if !hasPhase(tr, phase) {
					t.Errorf("trace is missing a %s span:\n%s", phase, tr)
				}
			}
			distinct := make(map[string]bool)
			for _, sp := range tr.Spans {
				distinct[sp.Phase] = true
				if sp.Duration() <= 0 {
					t.Errorf("span %s on %s has non-positive duration %v", sp.Phase, sp.Node, sp.Duration())
				}
			}
			if len(distinct) < 4 {
				t.Errorf("trace has %d distinct phases, want >= 4:\n%s", len(distinct), tr)
			}

			// Sum consistency: the breakdown tiles the setup window exactly,
			// and the window matches the caller-observed setup latency.
			breakdown := tr.SetupBreakdown()
			var sum time.Duration
			seen := make(map[string]time.Duration)
			for _, pd := range breakdown {
				sum += pd.Duration
				seen[pd.Phase] = pd.Duration
			}
			if sum != tr.SetupDuration() {
				t.Errorf("breakdown sums to %v, setup window is %v", sum, tr.SetupDuration())
			}
			if seen[PhaseSLPResolve] <= 0 {
				t.Errorf("breakdown has no %s share: %v", PhaseSLPResolve, breakdown)
			}
			if seen[PhaseSIPTransaction] <= 0 {
				t.Errorf("breakdown has no %s share: %v", PhaseSIPTransaction, breakdown)
			}
			const jitter = 20 * time.Millisecond
			if d := tr.SetupDuration() - call.SetupDuration(); d > jitter || d < -jitter {
				t.Errorf("trace setup %v vs observed setup %v (|delta| > %v)",
					tr.SetupDuration(), call.SetupDuration(), jitter)
			}

			if err := call.Hangup(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMetricsSnapshot checks that the merged Metrics snapshot covers every
// node's components and that the instrumentation counters actually moved
// during a call.
func TestMetricsSnapshot(t *testing.T) {
	sc, nodes := newChainScenario(t, 2)
	alice := registerPhone(t, nodes[0], "alice")
	registerPhone(t, nodes[1], "bob")

	call, err := alice.Dial("bob@" + domain)
	if err != nil {
		t.Fatal(err)
	}
	if err := call.WaitEstablished(callTimeout); err != nil {
		t.Fatal(err)
	}
	if err := call.Hangup(); err != nil {
		t.Fatal(err)
	}

	// Close first so every counter is frozen and equality is exact.
	sc.Close()
	m := sc.Metrics()

	if m.Network.TotalFrames() < 1 {
		t.Errorf("Metrics().Network saw no frames: %+v", m.Network)
	}
	var lagged int64
	for _, n := range m.Scheduler.Lag {
		lagged += n
	}
	if st := m.Scheduler; st.Runs < 1 || st.Wakeups < 1 || lagged != st.Runs {
		t.Errorf("Metrics().Scheduler: %d runs, %d wake-ups, %d in the lag histogram; want runs and wake-ups, every run in the histogram", st.Runs, st.Wakeups, lagged)
	}
	for _, n := range nodes {
		id := n.ID()
		if got, want := m.Proxies[id], n.Proxy().Stats(); got != want {
			t.Errorf("node %s: Metrics().Proxies = %+v, proxy reports %+v", id, got, want)
		}
		if _, ok := m.SLP[id]; !ok {
			t.Errorf("node %s missing from Metrics().SLP", id)
		}
	}

	for _, counter := range []string{"voip.calls.placed", "voip.calls.established", "sip.tx.invites", "netem.frames"} {
		if m.Registry.Counters[counter] < 1 {
			t.Errorf("registry counter %q = %d, want >= 1", counter, m.Registry.Counters[counter])
		}
	}
	if m.Registry.Histograms["voip.setup.delay"].Count < 1 {
		t.Error("voip.setup.delay histogram never observed a sample")
	}

	// The proxy on alice's node handled her REGISTER and routed her INVITE.
	if p := m.Proxies[nodes[0].ID()]; p.Registers < 1 || p.RequestsRouted < 1 {
		t.Errorf("proxy on %s barely worked: %+v", nodes[0].ID(), p)
	}
}

// TestMetricsConcurrentWithTraffic hammers the snapshot path while a call is
// live; run with -race this is the audit that Stats() never copies mutating
// state.
func TestMetricsConcurrentWithTraffic(t *testing.T) {
	sc, nodes := newChainScenario(t, 3)
	alice := registerPhone(t, nodes[0], "alice")
	registerPhone(t, nodes[2], "bob")

	call, err := alice.Dial("bob@" + domain)
	if err != nil {
		t.Fatal(err)
	}
	if err := call.WaitEstablished(callTimeout); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = sc.Metrics()
				_ = call.Trace()
			}
		}()
	}
	call.SendVoice(10)
	close(stop)
	wg.Wait()
	if err := call.Hangup(); err != nil {
		t.Fatal(err)
	}
}
