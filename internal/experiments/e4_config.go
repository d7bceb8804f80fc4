package experiments

import (
	"fmt"
	"io"

	"siphoc"
)

// E4 reproduces the paper's Figure 2 and §3.1: an out-of-the-box VoIP
// application needs exactly one configuration change to run in a MANET —
// the outbound proxy is set to localhost, so all SIP traffic flows through
// the local SIPHoc proxy. Everything else (user, domain) is the standard
// Internet account configuration.
func E4(w io.Writer) error {
	header(w, "E4: out-of-the-box client configuration (paper Figure 2)")
	sc, err := siphoc.NewScenarioWith()
	if err != nil {
		return err
	}
	defer sc.Close()
	node, err := sc.AddNode("10.0.0.1", siphoc.Position{})
	if err != nil {
		return err
	}

	// The Figure 2 dialog, rendered.
	cfg := siphoc.PhoneConfig{
		User:          "alice",
		Domain:        "voicehoc.ch",
		OutboundProxy: node.Proxy().Addr(), // "localhost" in the paper
	}
	fmt.Fprintf(w, "SIP user account configuration (cf. Kphone dialog, Figure 2):\n")
	fmt.Fprintf(w, "  User part of SIP URL : %s\n", cfg.User)
	fmt.Fprintf(w, "  Host part of SIP URL : %s\n", cfg.Domain)
	fmt.Fprintf(w, "  Outbound proxy       : %s   <- the ONLY MANET-specific setting\n", cfg.OutboundProxy)

	ph, err := node.NewPhoneWith(cfg)
	if err != nil {
		return err
	}
	if err := retry(3, ph.Register); err != nil {
		return fmt.Errorf("register: %w", err)
	}
	st := node.Proxy().Stats()
	if st.Registers == 0 {
		return fmt.Errorf("REGISTER did not land at the local proxy")
	}
	fmt.Fprintf(w, "\nREGISTER sip:%s was handled by the LOCAL proxy (%d REGISTERs seen),\n",
		cfg.Domain, st.Registers)
	fmt.Fprintf(w, "no centralized server was contacted; the binding is now in MANET SLP:\n")
	if svc, ok := node.SLP().LookupCached("sip", ph.AOR()); ok {
		fmt.Fprintf(w, "  %s -> %s\n", ph.AOR(), svc.URL)
	} else {
		return fmt.Errorf("binding missing from MANET SLP")
	}
	return nil
}
