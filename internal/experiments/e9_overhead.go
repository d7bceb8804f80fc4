package experiments

import (
	"fmt"
	"io"
	"time"

	"siphoc/internal/baseline/floodreg"
	"siphoc/internal/baseline/picosip"
	"siphoc/internal/netem"
	"siphoc/internal/routing/aodv"
	"siphoc/internal/slp"
)

// E9Row is one scheme's measurement in the discovery-overhead experiment.
type E9Row struct {
	Scheme        string
	ServiceFrames int64 // dedicated discovery frames on the air
	ServiceBytes  int64
	RoutingBytes  int64         // routing traffic incl. piggybacked payload
	LookupLatency time.Duration // far-node lookup, until it answered or gave up
	LookupOK      bool
}

// E9 quantifies the paper's core efficiency argument against the related
// work (§5): MANET SLP piggybacks service information onto routing messages
// and therefore sends *zero* dedicated discovery frames, while multicast SLP
// (standard SLP, [7]), REGISTER flooding ([12]) and proactive Pico-SIP
// HELLOs ([13]) all put extra packets on the air.
//
// Setup: an n-node chain running AODV; the first node registers a SIP
// binding, and the far node resolves it at the start of a 2 s observation
// window. We count dedicated service frames/bytes and total routing bytes
// over the window, at four network sizes: what piggybacking adds to the
// routing bytes is a digest per message plus the one registration's deltas,
// so the column grows with the number of routing messages and not with what
// they used to carry.
func E9(w io.Writer) error {
	header(w, "E9: discovery overhead vs baselines (paper §5)")
	for _, nodes := range []int{8, 16, 30, 64} {
		rows, err := RunE9(nodes)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "chain of %d nodes, %v observation window, 1 registration, 1 far-node lookup\n\n", nodes, e9Window)
		fmt.Fprintf(w, "%-22s %14s %14s %14s %14s\n", "scheme", "svc frames", "svc bytes", "routing bytes", "lookup")
		byName := map[string]E9Row{}
		for _, r := range rows {
			lookup := "FAILED"
			if r.LookupOK {
				lookup = r.LookupLatency.Round(time.Millisecond).String()
			}
			fmt.Fprintf(w, "%-22s %14d %14d %14d %14s\n",
				r.Scheme, r.ServiceFrames, r.ServiceBytes, r.RoutingBytes, lookup)
			byName[r.Scheme] = r
		}
		fmt.Fprintln(w)
		// Shape assertions.
		pig := byName["manet-slp piggyback"]
		if pig.ServiceFrames != 0 {
			return fmt.Errorf("%d nodes: piggyback sent %d dedicated frames; the paper's zero-extra-packet property failed", nodes, pig.ServiceFrames)
		}
		for _, name := range []string{"multicast-slp", "register-flooding", "picosip-hello"} {
			if byName[name].ServiceFrames == 0 {
				return fmt.Errorf("%d nodes: %s sent no dedicated frames; baseline broken", nodes, name)
			}
		}
		if !pig.LookupOK {
			return fmt.Errorf("%d nodes: piggyback lookup failed", nodes)
		}
	}
	fmt.Fprintf(w, "shape: piggybacked MANET SLP adds 0 dedicated frames (its cost rides inside\n")
	fmt.Fprintf(w, "routing bytes); every baseline pays standing or per-lookup packet overhead.\n")
	return nil
}

// e9Window is E9's observation window, which starts with the lookup.
const e9Window = 2 * time.Second

// RunE9 executes the four schemes on an n-node chain and returns their
// measurements.
func RunE9(n int) ([]E9Row, error) {
	rows := make([]E9Row, 0, 4)
	for _, scheme := range []string{"manet-slp piggyback", "multicast-slp", "register-flooding", "picosip-hello"} {
		row, err := runE9Scheme(scheme, n)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", scheme, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runE9Scheme(scheme string, n int) (E9Row, error) {
	row := E9Row{Scheme: scheme}
	clk := newFake()
	net := netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond, Clock: clk, Shards: 1})
	defer net.Close()
	hosts, err := netem.Chain(net, n, 90, "10.0.0")
	if err != nil {
		return row, err
	}
	// AODV everywhere: the routing substrate is identical across schemes.
	protos := make([]*aodv.Protocol, n)
	for i, h := range hosts {
		protos[i] = aodv.New(h, aodv.SimConfig())
	}
	stop := func() {
		for _, p := range protos {
			p.Stop()
		}
	}

	const (
		aor  = "alice@voicehoc.ch"
		addr = "10.0.0.1:5060"
	)
	var lookup func() bool

	switch scheme {
	case "manet-slp piggyback", "multicast-slp":
		mode := slp.ModePiggyback
		if scheme == "multicast-slp" {
			mode = slp.ModeMulticast
		}
		agents := make([]*slp.Agent, n)
		for i, h := range hosts {
			agents[i] = slp.NewAgent(h, slp.Config{Mode: mode})
			agents[i].AttachRouting(protos[i])
		}
		for i := range hosts {
			if err := protos[i].Start(); err != nil {
				return row, err
			}
			if err := agents[i].Start(); err != nil {
				stop()
				return row, err
			}
		}
		defer func() {
			for _, a := range agents {
				a.Stop()
			}
			stop()
		}()
		if err := agents[0].Register(slp.Service{Type: "sip", Key: aor, URL: slp.ServiceURL("sip", addr)}); err != nil {
			return row, err
		}
		lookup = func() bool {
			_, err := agents[n-1].Lookup("sip", aor, waitLong)
			return err == nil
		}
	case "register-flooding":
		agents := make([]*floodreg.Agent, n)
		for i, h := range hosts {
			if err := protos[i].Start(); err != nil {
				return row, err
			}
			agents[i] = floodreg.New(h, floodreg.Config{Interval: 250 * time.Millisecond})
			if err := agents[i].Start(); err != nil {
				stop()
				return row, err
			}
		}
		defer func() {
			for _, a := range agents {
				a.Stop()
			}
			stop()
		}()
		agents[0].Register(aor, addr)
		lookup = func() bool {
			return pollUntil(clk, 2*time.Millisecond, waitLong, func() bool { _, ok := agents[n-1].Lookup(aor); return ok })
		}
	case "picosip-hello":
		agents := make([]*picosip.Agent, n)
		for i, h := range hosts {
			if err := protos[i].Start(); err != nil {
				return row, err
			}
			agents[i] = picosip.New(h, picosip.Config{HelloInterval: 250 * time.Millisecond})
			if err := agents[i].Start(); err != nil {
				stop()
				return row, err
			}
		}
		defer func() {
			for _, a := range agents {
				a.Stop()
			}
			stop()
		}()
		agents[0].Register(aor, addr)
		lookup = func() bool {
			return pollUntil(clk, 2*time.Millisecond, waitLong, func() bool { _, ok := agents[n-1].Lookup(aor); return ok })
		}
	default:
		return row, fmt.Errorf("unknown scheme %q", scheme)
	}

	net.ResetStats()
	t0 := clk.Now()
	row.LookupOK = lookup()
	row.LookupLatency = clk.Now().Sub(t0)
	// Observe the rest of the window for standing overhead.
	clk.Sleep(e9Window - row.LookupLatency)
	st := net.Stats()
	row.ServiceFrames = st.ServiceFrames
	row.ServiceBytes = st.ServiceBytes
	row.RoutingBytes = st.RoutingBytes
	return row, nil
}
