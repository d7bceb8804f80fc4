package experiments

import (
	"fmt"
	"io"
	"time"

	"siphoc"
)

// E6 reproduces the paper's provider interoperability findings (§3.2): the
// authors tested three SIP providers; the two whose proxy runs on the domain
// they assign addresses from work transparently, while the one requiring a
// special outbound proxy fails because SIPHoc overwrites the outbound-proxy
// field with localhost — "an open issue which we plan to address".
func E6(w io.Writer) error {
	header(w, "E6: SIP provider interoperability matrix (paper §3.2)")
	sc, err := newScenario(siphoc.WithInternet(0))
	if err != nil {
		return err
	}
	defer sc.Close()

	providers := []struct {
		cfg  siphoc.ProviderConfig
		want bool // expected to work
	}{
		{siphoc.ProviderConfig{Domain: "siphoc.ch"}, true},
		{siphoc.ProviderConfig{Domain: "netvoip.ch"}, true},
		{siphoc.ProviderConfig{Domain: "polyphone.ethz.ch", ProxyHost: "sipgate.ethz.ch"}, false},
	}
	provs := make([]*siphoc.Provider, len(providers))
	for i, p := range providers {
		prov, err := sc.AddProvider(p.cfg)
		if err != nil {
			return err
		}
		prov.AddAccount("alice")
		provs[i] = prov
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

	fmt.Fprintf(w, "%-22s %-18s %-26s %s\n", "provider", "needs outbound", "upstream registration", "matches paper")
	fmt.Fprintf(w, "%-22s %-18s %-26s %s\n", "--------", "proxy?", "from the MANET", "")
	allMatch := true
	for i, p := range providers {
		ph, err := node.NewPhone("alice", p.cfg.Domain)
		if err != nil {
			return err
		}
		if err := ph.Register(); err != nil {
			return fmt.Errorf("local register at %s: %w", p.cfg.Domain, err)
		}
		aor := "alice@" + p.cfg.Domain
		pollUntil(sc.Clock(), 20*time.Millisecond, 20*time.Second, func() bool { return node.Proxy().UpstreamStatus(aor) != 0 })
		code := node.Proxy().UpstreamStatus(aor)
		works := code == 200
		outcome := fmt.Sprintf("FAILED (status %d)", code)
		if works {
			outcome = "OK (200)"
		}
		match := works == p.want
		allMatch = allMatch && match
		fmt.Fprintf(w, "%-22s %-18v %-26s %v\n",
			p.cfg.Domain, provs[i].RequiresOutboundProxy(), outcome, match)
	}
	if !allMatch {
		return fmt.Errorf("interop matrix deviates from the paper")
	}
	fmt.Fprintf(w, "\nresult: 2/3 providers interoperate; the outbound-proxy provider reproduces\n")
	fmt.Fprintf(w, "the paper's documented failure (the proxy cannot deduce the next hop).\n")
	return nil
}
