package experiments

import (
	"fmt"
	"io"
	"time"

	"siphoc"
)

// E5 reproduces the paper's §3.2: users keep their official SIP addresses
// and transparently make calls to — and receive calls from — the Internet
// as soon as one node in the MANET is connected and acts as a gateway.
func E5(w io.Writer) error {
	header(w, "E5: phone calls to/from the Internet (paper §3.2)")
	sc, err := newScenario(siphoc.WithInternet(0))
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

	// MANET: alice -- relay -- gateway; Internet: provider + carol.
	nodes := make([]*siphoc.Node, 3)
	for i := range 3 {
		var opts []siphoc.NodeOption
		if i == 2 {
			opts = append(opts, siphoc.WithGateway())
		}
		n, err := sc.AddNode(siphoc.NodeID(fmt.Sprintf("10.0.0.%d", i+1)),
			siphoc.Position{X: float64(i) * 90}, opts...)
		if err != nil {
			return err
		}
		nodes[i] = n
	}
	carol, err := sc.AddInternetPhone("carol", "voicehoc.ch", "ua.carol.net")
	if err != nil {
		return err
	}
	if err := carol.Register(); err != nil {
		return err
	}
	fmt.Fprintf(w, "MANET chain: 10.0.0.1 -- 10.0.0.2 -- 10.0.0.3 (gateway)\n")
	fmt.Fprintf(w, "Internet: provider voicehoc.ch + carol@voicehoc.ch on ua.carol.net\n\n")

	clk := sc.Clock()
	t0 := clk.Now()
	if err := sc.WaitAttached(nodes[0], 30*time.Second); err != nil {
		return err
	}
	fmt.Fprintf(w, "gateway discovery: node 10.0.0.1 found 'service:gateway' via MANET SLP and\n")
	fmt.Fprintf(w, "opened an L2 tunnel in %v -> the node is attached to the Internet\n\n", clk.Now().Sub(t0).Round(time.Millisecond))

	alice, err := nodes[0].NewPhone("alice", "voicehoc.ch")
	if err != nil {
		return err
	}
	if err := alice.Register(); err != nil {
		return err
	}

	// Outbound call.
	t1 := clk.Now()
	out, err := alice.Dial("carol@voicehoc.ch")
	if err != nil {
		return err
	}
	if err := out.WaitEstablished(20 * time.Second); err != nil {
		return fmt.Errorf("outbound call: %w", err)
	}
	fmt.Fprintf(w, "MANET -> Internet: alice called carol@voicehoc.ch, established in %v\n",
		clk.Now().Sub(t1).Round(time.Millisecond))
	if sent := out.SendVoice(15); sent != 15 {
		return fmt.Errorf("outbound media: %d frames", sent)
	}
	if err := out.Hangup(); err != nil {
		return err
	}
	fmt.Fprintf(w, "                   15 voice frames crossed the tunnel; call torn down\n\n")

	// Inbound call: requires the upstream registration to have landed.
	registered := func() bool { _, ok := prov.Binding("alice@voicehoc.ch"); return ok }
	if !pollUntil(clk, 20*time.Millisecond, 20*time.Second, registered) {
		return fmt.Errorf("upstream registration never reached the provider")
	}
	fmt.Fprintf(w, "Internet -> MANET: alice's official address is registered at the provider\n")
	t2 := clk.Now()
	in, err := carol.Dial("alice@voicehoc.ch")
	if err != nil {
		return err
	}
	if err := in.WaitEstablished(20 * time.Second); err != nil {
		return fmt.Errorf("inbound call: %w", err)
	}
	fmt.Fprintf(w, "                   carol called alice@voicehoc.ch, established in %v\n",
		clk.Now().Sub(t2).Round(time.Millisecond))
	if err := in.Hangup(); err != nil {
		return err
	}
	fmt.Fprintf(w, "result: the same SIP address works inside the MANET and from the Internet\n")
	return nil
}
