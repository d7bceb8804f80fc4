package experiments

import (
	"fmt"
	"io"
	"time"

	"siphoc"
)

// E13 goes beyond the paper's single MANET / single provider deployment:
// three MANET islands federate over the simulated Internet through a sharded
// provider tier, cross-island calls resolve without a global registrar, and
// concurrent media crossing the same gateway pair is trunked into one paced
// inter-gateway flow.
func E13(w io.Writer) error {
	header(w, "E13: multi-MANET federation (beyond the paper; ROADMAP north star)")
	fed, err := siphoc.NewFederationScenario(siphoc.FederationConfig{
		Islands:           3,
		GatewaysPerIsland: 2,
		ClientsPerIsland:  3,
		Shards:            4,
		Trunk:             true,
	})
	if err != nil {
		return err
	}
	defer fed.Close()

	fmt.Fprintf(w, "federation: 3 islands x (2 gateways + 3 clients), domain fed.example,\n")
	fmt.Fprintf(w, "provider tier sharded 4 ways by rendezvous hash of the AOR\n\n")

	clk := fed.Clock()
	t0 := clk.Now()
	if err := fed.WaitAttached(30 * time.Second); err != nil {
		return err
	}
	fmt.Fprintf(w, "every client attached to the Internet through its island gateways in %v\n\n",
		clk.Now().Sub(t0).Round(time.Millisecond))

	gen := fed.NewCallGenerator(siphoc.CallGenConfig{Concurrent: 12})
	rep, err := gen.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "call workload: %d cross-island calls, ramped arrivals, held concurrently\n", rep.Attempted)
	fmt.Fprintf(w, "  established %d / failed %d, peak concurrency %d\n",
		rep.Established, rep.Failed, rep.PeakConcurrent)
	fmt.Fprintf(w, "  setup delay p50 %v  p99 %v\n",
		rep.SetupP50.Round(time.Millisecond), rep.SetupP99.Round(time.Millisecond))
	fmt.Fprintf(w, "  MOS mean %.2f  p10 %.2f  p50 %.2f\n", rep.MOSMean, rep.MOSP10, rep.MOSP50)
	if rep.Trunk.FramesSent > 0 {
		fmt.Fprintf(w, "  trunking: %d media payloads crossed the Internet in %d trunk frames (%.1fx fewer packets)\n",
			rep.Trunk.PayloadsBatched, rep.Trunk.FramesSent,
			float64(rep.Trunk.PayloadsBatched)/float64(rep.Trunk.FramesSent))
	}
	if rep.Established != rep.Attempted {
		return fmt.Errorf("federation workload lost calls: %d/%d", rep.Established, rep.Attempted)
	}
	fmt.Fprintf(w, "result: island-to-island calls resolve through the shard map with no global\n")
	fmt.Fprintf(w, "registrar, and gateway trunking collapses the inter-gateway packet rate\n")
	return nil
}
