package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"siphoc"
)

// E10 probes the transparency claim of §3.2 under gateway churn: Internet
// connectivity comes and goes with the gateway, and the middleware
// re-attaches on its own — the VoIP user keeps the same configuration
// throughout. The churn itself is injected by seeded fault plans
// (siphoc.FaultScenario), so the experiment replays the same schedule every
// run and asserts the harness invariants on top of the narrative.
func E10(w io.Writer) error {
	header(w, "E10: transparency under gateway churn (paper §3.2)")
	sc, err := siphoc.NewScenarioWith(siphoc.WithInternet(0))
	if err != nil {
		return err
	}
	defer sc.Close()
	prov, err := sc.AddProvider(siphoc.ProviderConfig{Domain: "voicehoc.ch"})
	if err != nil {
		return err
	}
	prov.AddAccount("alice")
	prov.AddAccount("carol")
	node, err := sc.AddNode("10.0.0.1", siphoc.Position{})
	if err != nil {
		return err
	}
	gw1, err := sc.AddNode("10.0.0.2", siphoc.Position{X: 60}, siphoc.WithGateway())
	if err != nil {
		return err
	}
	carol, err := sc.AddInternetPhone("carol", "voicehoc.ch", "ua.carol.net")
	if err != nil {
		return err
	}
	if err := carol.Register(); err != nil {
		return err
	}
	alice, err := node.NewPhone("alice", "voicehoc.ch")
	if err != nil {
		return err
	}
	if err := retry(3, alice.Register); err != nil {
		return err
	}

	t0 := time.Now()
	if err := sc.WaitAttached(node, 30*time.Second); err != nil {
		return err
	}
	attach1 := time.Since(t0)
	fmt.Fprintf(w, "t=%8v  node attached via gateway %s\n", attach1.Round(time.Millisecond), gw1.ID())

	callOK := func(label string) error {
		call, err := alice.Dial("carol@voicehoc.ch")
		if err != nil {
			return err
		}
		if err := call.WaitEstablished(20 * time.Second); err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		defer func() { _ = call.Hangup() }()
		fmt.Fprintf(w, "t=%8v  %s: Internet call established in %v\n",
			time.Since(t0).Round(time.Millisecond), label, call.SetupDuration().Round(time.Millisecond))
		return nil
	}
	if err := callOK("with gateway 1"); err != nil {
		return err
	}

	// Kill the gateway with a seeded fault plan: the node crash also purges
	// the dead gateway's SLP adverts from every surviving cache.
	crash := siphoc.NewFaultScenario(sc, 7)
	crash.CrashNode(0, gw1.ID())
	if err := crash.Run(); err != nil {
		return err
	}
	crash.Wait()
	tKill := time.Now()
	for _, rec := range crash.Log() {
		fmt.Fprintf(w, "t=%8v  fault injected: %s\n", time.Since(t0).Round(time.Millisecond), rec.Detail)
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) && node.InternetAttached() {
		time.Sleep(20 * time.Millisecond)
	}
	if node.InternetAttached() {
		return fmt.Errorf("node never detected gateway loss")
	}
	fmt.Fprintf(w, "t=%8v  loss detected, node detached (%v after the failure)\n",
		time.Since(t0).Round(time.Millisecond), time.Since(tKill).Round(time.Millisecond))

	// With no gateway anywhere, a bounded wait surfaces the typed error.
	if err := sc.WaitAttached(node, 500*time.Millisecond); !errors.Is(err, siphoc.ErrNoGateway) {
		return fmt.Errorf("want ErrNoGateway while detached, got %v", err)
	}
	fmt.Fprintf(w, "t=%8v  bounded attach wait reports ErrNoGateway\n", time.Since(t0).Round(time.Millisecond))

	// Internet calls must now fail fast at the proxy.
	failCall, err := alice.Dial("carol@voicehoc.ch")
	if err != nil {
		return err
	}
	crash.Track(failCall)
	if err := failCall.WaitEstablished(20 * time.Second); err == nil {
		return fmt.Errorf("Internet call succeeded while detached")
	}
	fmt.Fprintf(w, "t=%8v  Internet call correctly rejected while detached (status %d)\n",
		time.Since(t0).Round(time.Millisecond), failCall.FailCode())
	if err := crash.CheckInvariants(5 * time.Second); err != nil {
		return fmt.Errorf("crash-phase invariants: %w", err)
	}

	// Replacement gateway appears via the recovery plan; the node must
	// re-attach by itself.
	tNew := time.Now()
	recovery := siphoc.NewFaultScenario(sc, 7)
	recovery.RestartNode(0, "10.0.0.3", siphoc.Position{X: 70}, siphoc.WithGateway())
	if err := recovery.Run(); err != nil {
		return err
	}
	recovery.Wait()
	if err := sc.WaitAttached(node, 60*time.Second); err != nil {
		return fmt.Errorf("failover: %w", err)
	}
	fmt.Fprintf(w, "t=%8v  new gateway 10.0.0.3 up; node re-attached after %v\n",
		time.Since(t0).Round(time.Millisecond), time.Since(tNew).Round(time.Millisecond))
	if err := callOK("after failover"); err != nil {
		return err
	}
	if err := recovery.CheckInvariants(5 * time.Second); err != nil {
		return fmt.Errorf("recovery-phase invariants: %w", err)
	}
	st := node.ConnectionProvider().Stats()
	fmt.Fprintf(w, "\nresult: connectivity churn is invisible to the application configuration;\n")
	fmt.Fprintf(w, "attachment, failure detection and failover are fully automatic\n")
	fmt.Fprintf(w, "(%d failover(s), last detach-to-reattach %v).\n", st.Failovers, st.LastFailoverDur.Round(time.Millisecond))
	return nil
}
