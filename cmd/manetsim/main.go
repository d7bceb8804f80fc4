// Command manetsim runs a configurable wireless-ad-hoc-VoIP scenario on the
// in-memory MANET emulator and reports call statistics — the workhorse for
// exploring the system beyond the paper's 10-laptop testbed. It runs in
// virtual time on one scheduler shard, so a seed replays exactly and the
// reported delays are protocol time.
//
//	manetsim -nodes 25 -topology grid -routing olsr -calls 20 -loss 0.05
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"siphoc"
	"siphoc/internal/clock"
	"siphoc/internal/netem"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "manetsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("manetsim", flag.ContinueOnError)
	var (
		nodes    = fs.Int("nodes", 10, "number of MANET nodes")
		topology = fs.String("topology", "chain", "chain | grid | random")
		routingF = fs.String("routing", "aodv", "aodv | olsr")
		calls    = fs.Int("calls", 10, "number of calls to place between random pairs")
		talk     = fs.Int("talk", 25, "voice frames per call (20ms each)")
		loss     = fs.Float64("loss", 0, "per-frame radio loss probability")
		seed     = fs.Int64("seed", 1, "layout / pairing RNG seed")
		mobility = fs.Bool("mobility", false, "enable random-waypoint mobility during calls")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	routing := siphoc.RoutingAODV
	if *routingF == "olsr" {
		routing = siphoc.RoutingOLSR
	} else if *routingF != "aodv" {
		return fmt.Errorf("unknown routing %q", *routingF)
	}
	clk := clock.NewFake(time.Unix(1_000_000, 0))
	sc, err := siphoc.NewScenarioWith(
		siphoc.WithRadio(netem.Config{LossRate: *loss, Seed: *seed, Clock: clk, Shards: 1}),
		siphoc.WithRoutingKind(routing),
	)
	if err != nil {
		return err
	}
	defer sc.Close()

	var members []*siphoc.Node
	switch *topology {
	case "chain":
		members, err = sc.Chain(*nodes, 90)
	case "grid":
		side := 1
		for side*side < *nodes {
			side++
		}
		members, err = sc.Grid(side, side, 80)
	case "random":
		for i := range *nodes {
			rng := rand.New(rand.NewSource(*seed + int64(i)))
			n, e := sc.AddNode(netem.NodeName("10.0.0", i+1),
				siphoc.Position{X: rng.Float64() * 400, Y: rng.Float64() * 400})
			if e != nil {
				return e
			}
			members = append(members, n)
		}
	default:
		return fmt.Errorf("unknown topology %q", *topology)
	}
	if err != nil {
		return err
	}
	fmt.Printf("MANET: %d nodes, %s topology, %s routing, %.0f%% loss\n",
		len(members), *topology, routing, *loss*100)

	// One phone per node, all on the same "provider" domain.
	phones := make([]*siphoc.Phone, len(members))
	for i, n := range members {
		ph, err := n.NewPhone(fmt.Sprintf("user%d", i+1), "voicehoc.ch")
		if err != nil {
			return err
		}
		if err := registerWithRetry(clk, ph); err != nil {
			return fmt.Errorf("register %s: %w", ph.AOR(), err)
		}
		phones[i] = ph
	}
	fmt.Printf("registered %d phones with their local proxies\n\n", len(phones))

	if *mobility {
		mover := netem.NewWaypoint(sc.Network(), 500, 500, 1, 2, *seed)
		defer sc.Network().Sched().Every("mobility", 100*time.Millisecond, func(time.Time) { mover.Step(0.1) }).Stop()
	}

	rng := rand.New(rand.NewSource(*seed))
	var (
		ok, failed int
		totalSetup time.Duration
		worstMOS   = 5.0
	)
	for c := range *calls {
		i := rng.Intn(len(phones))
		j := rng.Intn(len(phones))
		for j == i {
			j = rng.Intn(len(phones))
		}
		caller, callee := phones[i], phones[j]
		call, err := caller.Dial(callee.AOR())
		if err != nil {
			return err
		}
		if err := call.WaitEstablished(20 * time.Second); err != nil {
			failed++
			fmt.Printf("call %2d: %s -> %s FAILED (%v)\n", c+1, caller.AOR(), callee.AOR(), err)
			continue
		}
		call.SendVoice(*talk)
		clk.Sleep(100 * time.Millisecond)
		var mos float64
		select {
		case inc := <-callee.Incoming():
			st := inc.MediaStats()
			mos = st.MOS
			if mos < worstMOS {
				worstMOS = mos
			}
		default:
		}
		setup := call.SetupDuration()
		totalSetup += setup
		ok++
		fmt.Printf("call %2d: %s -> %s ok, setup %8v, MOS %.2f\n",
			c+1, caller.AOR(), callee.AOR(), setup.Round(time.Millisecond), mos)
		_ = call.Hangup()
	}
	fmt.Printf("\nsummary: %d/%d calls succeeded", ok, *calls)
	if ok > 0 {
		fmt.Printf(", avg setup %v, worst MOS %.2f", (totalSetup / time.Duration(ok)).Round(time.Millisecond), worstMOS)
	}
	fmt.Println()
	st := sc.Network().Stats()
	fmt.Printf("radio: %d routing frames (%d B), %d data frames (%d B), %d lost\n",
		st.RoutingFrames, st.RoutingBytes, st.DataFrames, st.DataBytes, st.Lost)
	if failed > 0 {
		return fmt.Errorf("%d call(s) failed", failed)
	}
	return nil
}

func registerWithRetry(clk clock.Clock, ph *siphoc.Phone) error {
	var err error
	for range 5 {
		if err = ph.Register(); err == nil {
			return nil
		}
		clk.Sleep(100 * time.Millisecond)
	}
	return err
}
