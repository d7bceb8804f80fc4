package experiments

import (
	"fmt"
	"io"
	"time"

	"siphoc"
)

// E1 reproduces the paper's Figure 3: the eight-step establishment of a
// call between two users in an isolated ad hoc network, with every SIP
// message flowing through the per-node SIPHoc proxies and the callee
// resolved via MANET SLP — no centralized server anywhere.
func E1(w io.Writer) error {
	header(w, "E1: call setup in an isolated MANET (paper Figure 3)")
	sc, err := newScenario()
	if err != nil {
		return err
	}
	defer sc.Close()
	nodes, err := sc.Chain(3, 90)
	if err != nil {
		return err
	}
	n1, n3 := nodes[0], nodes[2]
	fmt.Fprintf(w, "topology: 3-node chain %s -- %s -- %s (multihop, 2 hops end to end)\n",
		nodes[0].ID(), nodes[1].ID(), nodes[2].ID())

	alice, err := n1.NewPhone("alice", "voicehoc.ch")
	if err != nil {
		return err
	}
	bob, err := n3.NewPhone("bob", "voicehoc.ch")
	if err != nil {
		return err
	}

	// Steps 1-2: Alice's phone registers with its local proxy, which
	// advertises the binding via MANET SLP.
	if err := alice.Register(); err != nil {
		return fmt.Errorf("step 1: %w", err)
	}
	fmt.Fprintf(w, "step 1: %s REGISTERed with local proxy %s\n", alice.AOR(), n1.Proxy().Addr())
	if _, ok := n1.SLP().LookupCached("sip", alice.AOR()); !ok {
		return fmt.Errorf("step 2: proxy did not advertise via MANET SLP")
	}
	fmt.Fprintf(w, "step 2: proxy advertised 'service:sip://%s' for %s via MANET SLP\n",
		n1.Proxy().Addr(), alice.AOR())

	// Steps 3-4: Bob does the same on his node.
	if err := bob.Register(); err != nil {
		return fmt.Errorf("step 3: %w", err)
	}
	fmt.Fprintf(w, "step 3: %s REGISTERed with local proxy %s\n", bob.AOR(), n3.Proxy().Addr())
	fmt.Fprintf(w, "step 4: proxy advertised 'service:sip://%s' for %s via MANET SLP\n",
		n3.Proxy().Addr(), bob.AOR())

	// Step 5: Alice's INVITE is routed through her local proxy.
	before := n1.Proxy().Stats()
	call, err := alice.Dial("bob@voicehoc.ch")
	if err != nil {
		return err
	}
	// Steps 6-8 happen inside the middleware; observe their effects.
	if err := call.WaitEstablished(20 * time.Second); err != nil {
		return fmt.Errorf("call setup: %w", err)
	}
	after := n1.Proxy().Stats()
	fmt.Fprintf(w, "step 5: INVITE bob@voicehoc.ch sent to local proxy (outbound proxy = localhost)\n")
	if after.SLPResolutions <= before.SLPResolutions {
		return fmt.Errorf("step 6: proxy did not consult MANET SLP")
	}
	fmt.Fprintf(w, "step 6: proxy consulted MANET SLP for bob@voicehoc.ch\n")
	fmt.Fprintf(w, "step 7: MANET SLP resolved bob -> %s, INVITE forwarded across the MANET\n", n3.Proxy().Addr())
	if n3.Proxy().Stats().LocalDeliveries == 0 {
		return fmt.Errorf("step 8: callee proxy did not deliver to the local application")
	}
	fmt.Fprintf(w, "step 8: Bob's proxy forwarded the INVITE to his phone - it rang and answered\n")
	fmt.Fprintf(w, "result: call established in %v across 2 hops; media flowing\n", call.SetupDuration().Round(time.Millisecond))

	if sent := call.SendVoice(25); sent != 25 {
		return fmt.Errorf("media: only %d frames sent", sent)
	}
	// Let the last frames land.
	sc.Clock().Sleep(200 * time.Millisecond)
	var bobCall *siphoc.Call
	select {
	case bobCall = <-bob.Incoming():
	default:
		return fmt.Errorf("callee leg not observable")
	}
	st := bobCall.MediaStats()
	fmt.Fprintf(w, "media:  %d/%d frames received, loss %.1f%%, avg one-way delay %v, MOS %.2f\n",
		st.Received, st.Expected, st.LossRate*100, st.AvgDelay.Round(time.Microsecond), st.MOS)
	if err := call.Hangup(); err != nil {
		return fmt.Errorf("teardown: %w", err)
	}
	fmt.Fprintf(w, "teardown: BYE completed, call ended cleanly\n")
	return nil
}
