package experiments

import (
	"fmt"
	"io"
	"time"

	"siphoc"
)

// E11Row is one network size's measurements.
type E11Row struct {
	Nodes         int
	Diameter      int // grid corner-to-corner hop count
	Dissemination time.Duration
	SetupWarm     time.Duration
	RoutingBps    float64 // routing bytes/s per node at idle steady state
}

// E11 is the scalability study the paper explicitly defers ("as a next
// step, we plan to explore the scalability of the system as the number of
// nodes grows"): square grids of growing size, measuring how long a new
// registration takes to reach the farthest node (epidemic dissemination),
// the corner-to-corner call setup delay, and the per-node routing traffic
// that carries the piggybacked service information.
func E11(w io.Writer) error {
	header(w, "E11: scalability with network size (paper §4/§6 future work)")
	// Sides beyond 5 became tractable once bring-up went parallel and the
	// control plane stopped rebuilding routes per message; the pure
	// control-plane study continues to 400 nodes in BenchmarkControlScale.
	rows, err := RunE11([]int{2, 3, 4, 5, 6, 8})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %-10s %16s %14s %18s\n",
		"nodes", "diameter", "dissemination", "setup (warm)", "routing B/s/node")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %-10d %16v %14v %18.0f\n",
			r.Nodes, r.Diameter,
			r.Dissemination.Round(time.Millisecond),
			r.SetupWarm.Round(time.Millisecond),
			r.RoutingBps)
	}
	fmt.Fprintf(w, "\nshape: dissemination and setup grow with the network diameter (epidemic\n")
	fmt.Fprintf(w, "hop-by-hop spread and per-hop SIP forwarding); per-node routing traffic\n")
	fmt.Fprintf(w, "stays bounded because service info rides the hello beat instead of flooding.\n")
	for i := 1; i < len(rows); i++ {
		if rows[i].Dissemination < rows[0].Dissemination/2 {
			return fmt.Errorf("dissemination did not grow with size: %+v", rows)
		}
	}
	return nil
}

// RunE11 measures the given grid side lengths.
func RunE11(sides []int) ([]E11Row, error) {
	rows := make([]E11Row, 0, len(sides))
	for _, side := range sides {
		row, err := runE11Point(side)
		if err != nil {
			return nil, fmt.Errorf("side %d: %w", side, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runE11Point(side int) (E11Row, error) {
	row := E11Row{Nodes: side * side, Diameter: 2 * (side - 1)}
	sc, err := siphoc.NewScenarioWith()
	if err != nil {
		return row, err
	}
	defer sc.Close()
	// Isolated MANET without Connection Providers: otherwise every node's
	// standing gateway query rides all hellos and the idle measurement
	// reflects gateway probing instead of the discovery substrate.
	nodes, err := sc.Grid(side, side, 80, siphoc.WithoutConnectionProvider())
	if err != nil {
		return row, err
	}
	corner, opposite := nodes[0], nodes[len(nodes)-1]

	// Let the network settle (hello exchange), then measure the idle
	// routing rate.
	time.Sleep(300 * time.Millisecond)
	sc.Network().ResetStats()
	const window = 500 * time.Millisecond
	time.Sleep(window)
	st := sc.Network().Stats()
	row.RoutingBps = float64(st.RoutingBytes) / window.Seconds() / float64(len(nodes))

	// Dissemination: register at one corner, time visibility at the other.
	alice, err := corner.NewPhone("alice", "voicehoc.ch")
	if err != nil {
		return row, err
	}
	bob, err := opposite.NewPhone("bob", "voicehoc.ch")
	if err != nil {
		return row, err
	}
	if err := retry(5, bob.Register); err != nil {
		return row, err
	}
	t0 := time.Now()
	if err := retry(5, alice.Register); err != nil {
		return row, err
	}
	if _, err := opposite.SLP().Lookup("sip", "alice@voicehoc.ch", waitLong); err != nil {
		return row, fmt.Errorf("dissemination never completed: %w", err)
	}
	row.Dissemination = time.Since(t0)

	// Warm corner-to-corner call.
	if _, err := corner.SLP().Lookup("sip", "bob@voicehoc.ch", waitLong); err != nil {
		return row, err
	}
	if _, err := placeCall(alice); err != nil { // cold call warms the route
		return row, err
	}
	warm, err := placeCall(alice)
	if err != nil {
		return row, err
	}
	row.SetupWarm = warm
	return row, nil
}
