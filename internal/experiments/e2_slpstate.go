package experiments

import (
	"fmt"
	"io"

	"siphoc"
)

// E2 reproduces the paper's Figure 4: the state of the MANET SLP process
// after the proxy has advertised its own SIP endpoint address as the
// responsible contact address for the given user, including the loaded
// routing plugin.
func E2(w io.Writer) error {
	header(w, "E2: MANET SLP process state (paper Figure 4)")
	sc, err := siphoc.NewScenarioWith()
	if err != nil {
		return err
	}
	defer sc.Close()
	// Two nodes so the advertisement also propagates to a peer cache.
	nodes, err := sc.Chain(2, 80)
	if err != nil {
		return err
	}
	alice, err := nodes[0].NewPhone("alice", "voicehoc.ch")
	if err != nil {
		return err
	}
	if err := retry(3, alice.Register); err != nil {
		return err
	}
	fmt.Fprintf(w, "after REGISTER of alice@voicehoc.ch on %s:\n\n", nodes[0].ID())
	fmt.Fprint(w, nodes[0].SLP().Dump())

	// Wait for the piggybacked advert to reach the neighbour, then show
	// its learned cache — "this information is available to all nodes in
	// the network".
	if _, err := nodes[1].SLP().Lookup("sip", "alice@voicehoc.ch", waitLong); err != nil {
		return fmt.Errorf("advert never reached the neighbour: %w", err)
	}
	fmt.Fprintf(w, "\nneighbour %s learned the binding via routing-message piggybacking:\n\n", nodes[1].ID())
	fmt.Fprint(w, nodes[1].SLP().Dump())
	return nil
}
