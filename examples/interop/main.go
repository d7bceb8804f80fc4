// Interop: the paper's §3.2 provider study as a runnable demo. Three SIP
// providers mirror the ones the authors tested (siphoc.ch, netvoip.ch,
// polyphone.ethz.ch): users keep their official SIP addresses in the MANET,
// and the provider that demands a special outbound proxy reproduces the
// paper's documented incompatibility with SIPHoc's localhost-proxy trick.
package main

import (
	"fmt"
	"log"
	"time"

	"siphoc"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sc, err := siphoc.NewScenarioWith(siphoc.WithInternet(0))
	if err != nil {
		return err
	}
	defer sc.Close()

	specs := []struct {
		cfg  siphoc.ProviderConfig
		note string
	}{
		{siphoc.ProviderConfig{Domain: "siphoc.ch"}, "proxy at the domain"},
		{siphoc.ProviderConfig{Domain: "netvoip.ch"}, "proxy at the domain"},
		{siphoc.ProviderConfig{Domain: "polyphone.ethz.ch", ProxyHost: "sipgate.ethz.ch"},
			"requires special outbound proxy"},
	}
	for _, s := range specs {
		prov, err := sc.AddProvider(s.cfg)
		if err != nil {
			return err
		}
		prov.AddAccount("alice")
	}

	if _, err := sc.AddNode("10.0.0.1", siphoc.Position{}, siphoc.WithGateway()); err != nil {
		return err
	}
	node, err := sc.AddNode("10.0.0.2", siphoc.Position{X: 50})
	if err != nil {
		return err
	}
	if err := sc.WaitAttached(node, 30*time.Second); err != nil {
		return err
	}
	fmt.Println("MANET node attached to the Internet through the gateway")
	fmt.Println()

	for _, s := range specs {
		ph, err := node.NewPhone("alice", s.cfg.Domain)
		if err != nil {
			return err
		}
		if err := registerWithRetry(ph); err != nil {
			return fmt.Errorf("local register at %s: %w", s.cfg.Domain, err)
		}
		aor := "alice@" + s.cfg.Domain
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) && node.Proxy().UpstreamStatus(aor) == 0 {
			time.Sleep(20 * time.Millisecond)
		}
		code := node.Proxy().UpstreamStatus(aor)
		verdict := "works transparently"
		if code != 200 {
			verdict = fmt.Sprintf("FAILS (status %d) - the paper's open issue", code)
		}
		fmt.Printf("%-20s (%s): upstream registration %s\n", s.cfg.Domain, s.note, verdict)
	}
	return nil
}

func registerWithRetry(ph *siphoc.Phone) error {
	var err error
	for range 5 {
		if err = ph.Register(); err == nil {
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return err
}
