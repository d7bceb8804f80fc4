package core

// Trunk equivalence tests: inter-gateway trunking changes how media crosses
// the Internet (batched trunk frames instead of one datagram per RTP packet)
// but must not change what arrives — the played bytes, their timing and the
// resulting MOS have to be identical to the untrunked path. The fixtures run
// a two-island federation (each island a MANET of one client and one gateway,
// joined only by the simulated Internet) on a fake clock, so both variants
// execute the same deterministic schedule.

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/internet"
	"siphoc/internal/netem"
	"siphoc/internal/rtp"
	"siphoc/internal/slp"
	"siphoc/internal/testutil"
)

// islandRoutes is a static intra-island next-hop table: cross-island
// destinations are unknown, so they fall through to the Connection Provider's
// default handler and take the tunnel.
type islandRoutes struct{ next map[netem.NodeID]netem.NodeID }

func (r islandRoutes) NextHop(dst netem.NodeID) (netem.NodeID, bool) {
	nh, ok := r.next[dst]
	return nh, ok
}
func (r islandRoutes) RequestRoute(dst netem.NodeID, done func(bool)) {
	_, ok := r.next[dst]
	done(ok)
}

// trunkIsland is one MANET island: a client node one radio hop from its
// gateway, with SLP in multicast mode (no routing protocol needed at this
// scale) and a Connection Provider scoped to the island's address prefix.
type trunkIsland struct {
	net    *netem.Network
	client *netem.Host
	gwHost *netem.Host
	gw     *GatewayProvider
	cp     *ConnectionProvider
}

func buildTrunkIsland(t *testing.T, clk clock.Clock, prefix string, inet *internet.Internet, trunked bool) *trunkIsland {
	t.Helper()
	is := &trunkIsland{}
	is.net = netem.NewNetwork(netem.Config{BaseDelay: 700 * time.Microsecond, Clock: clk})
	t.Cleanup(is.net.Close)

	clientID := netem.NodeID(prefix + ".0.1")
	gwID := netem.NodeID(prefix + ".0.2")
	var err error
	if is.client, err = is.net.AddHost(clientID, netem.Position{}); err != nil {
		t.Fatal(err)
	}
	if is.gwHost, err = is.net.AddHost(gwID, netem.Position{X: 50}); err != nil {
		t.Fatal(err)
	}
	is.client.SetRouteProvider(islandRoutes{next: map[netem.NodeID]netem.NodeID{gwID: gwID}})
	is.gwHost.SetRouteProvider(islandRoutes{next: map[netem.NodeID]netem.NodeID{clientID: clientID}})

	agents := make(map[netem.NodeID]*slp.Agent)
	for _, h := range []*netem.Host{is.client, is.gwHost} {
		agent := slp.NewAgent(h, slp.Config{Mode: slp.ModeMulticast})
		if err := agent.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(agent.Stop)
		agents[h.ID()] = agent
	}

	is.gw = NewGatewayProvider(is.gwHost, inet, agents[gwID], GatewayConfig{ClientTTL: time.Hour, Trunk: trunked})
	if err := is.gw.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(is.gw.Stop)

	is.cp = NewConnectionProvider(is.client, agents[clientID], ConnProviderConfig{
		ProbeInterval: 100 * time.Millisecond,
		LookupTimeout: 200 * time.Millisecond,
		AckTimeout:    500 * time.Millisecond,
		IsLocal: func(id netem.NodeID) bool {
			return strings.HasPrefix(string(id), prefix+".")
		},
	})
	if err := is.cp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(is.cp.Stop)
	return is
}

// fedSim is a two-island federation on a fake clock, with a raw capture of
// the bytes and arrival instants on one port.
type fedSim struct {
	clk      *clock.Fake
	rawMu    sync.Mutex
	rawData  [][]byte
	rawTimes []time.Time
}

// attach waits for both islands' clients to attach to their gateways.
func attach(t *testing.T, islands ...*trunkIsland) {
	t.Helper()
	for _, is := range islands {
		if err := is.cp.WaitAttached(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
}

// trunkGoldenResult is everything observable about one golden federation
// call: the receiving session's accounting plus the raw bytes (and arrival
// instants) captured on the reverse direction.
type trunkGoldenResult struct {
	played, late, missing int64
	stats                 rtp.Stats
	rawData               [][]byte
	rawTimes              []time.Time
	trunkA, trunkB        TrunkStats
	internetData          int64
}

// runTrunkGoldenCall runs one bidirectional cross-island media exchange:
// client A streams to client B's session (quality accounting) while client B
// streams to a raw capture port on client A (bit-level accounting).
func runTrunkGoldenCall(t *testing.T, trunked bool) trunkGoldenResult {
	t.Helper()
	sim := &fedSim{clk: clock.NewFake(time.Unix(3_000_000, 0))}
	inet := internet.New(internet.Config{Delay: 700 * time.Microsecond, Clock: sim.clk})
	t.Cleanup(inet.Close)

	a := buildTrunkIsland(t, sim.clk, "10.1", inet, trunked)
	b := buildTrunkIsland(t, sim.clk, "10.2", inet, trunked)

	connA, err := a.client.Listen(4000)
	if err != nil {
		t.Fatal(err)
	}
	connB, err := b.client.Listen(4001)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := a.client.Listen(4002)
	if err != nil {
		t.Fatal(err)
	}
	sessA := rtp.NewSession(connA, 11)
	sessB := rtp.NewSession(connB, 22)
	t.Cleanup(sessA.Close)
	t.Cleanup(sessB.Close)

	raw.Handle(func(dg *netem.Datagram) {
		sim.rawMu.Lock()
		sim.rawData = append(sim.rawData, append([]byte(nil), dg.Data...))
		sim.rawTimes = append(sim.rawTimes, sim.clk.Now())
		sim.rawMu.Unlock()
	})

	attach(t, a, b)
	// Align both variants on the same absolute fake instant before media
	// starts, so the clock values embedded in voice payloads — and therefore
	// the raw bytes on the wire — are comparable bit for bit.
	target := time.Unix(3_000_000, 0).Add(4 * time.Second)
	if !sim.clk.Now().Before(target) {
		t.Fatalf("attached only at %v, past the media start", sim.clk.Now())
	}
	sim.clk.Sleep(target.Sub(sim.clk.Now()))

	const frames = 50
	internetBefore := inet.Network().Stats().DataFrames
	stAB := sessA.StartStream(b.client.ID(), 4001, frames)
	stBA := sessB.StartStream(a.client.ID(), 4002, frames)
	if sent := stAB.Wait(); sent != frames {
		t.Fatalf("A->B sent = %d, want %d", sent, frames)
	}
	if sent := stBA.Wait(); sent != frames {
		t.Fatalf("B->A sent = %d, want %d", sent, frames)
	}
	sim.clk.Sleep(300 * time.Millisecond) // drain in-flight frames and the playout buffer

	res := trunkGoldenResult{
		stats:        sessB.Stats(),
		trunkA:       a.gw.TrunkStats(),
		trunkB:       b.gw.TrunkStats(),
		internetData: inet.Network().Stats().DataFrames - internetBefore,
	}
	res.played, res.late, res.missing = sessB.PlayoutStats()
	raw.Close()
	sim.rawMu.Lock()
	res.rawData = sim.rawData
	res.rawTimes = sim.rawTimes
	sim.rawMu.Unlock()
	return res
}

// TestTrunkGoldenEquivalence runs the same seeded cross-island call with and
// without trunking and demands bit-identical media on the wire and identical
// playout/quality accounting. With one stream per direction every flush is
// inline, so trunking must be invisible but for its framing: a trunk frame is
// a few bytes longer on the Internet than the datagram it carries, so every
// packet arrives the same few microseconds of transmission time later.
func TestTrunkGoldenEquivalence(t *testing.T) {
	plain := runTrunkGoldenCall(t, false)
	trunked := runTrunkGoldenCall(t, true)

	if plain.played != trunked.played || plain.late != trunked.late || plain.missing != trunked.missing {
		t.Fatalf("playout diverged: untrunked %d/%d/%d, trunked %d/%d/%d",
			plain.played, plain.late, plain.missing,
			trunked.played, trunked.late, trunked.missing)
	}
	// The framing's transmission time, read off the first packet.
	var framing time.Duration
	if len(plain.rawTimes) > 0 && len(trunked.rawTimes) > 0 {
		framing = trunked.rawTimes[0].Sub(plain.rawTimes[0])
	}
	if framing < 0 || framing > 10*time.Microsecond {
		t.Fatalf("trunked packets arrive %v after untrunked ones, want a few µs of framing", framing)
	}
	shifted := plain.stats
	shifted.AvgDelay += framing
	shifted.MaxDelay += framing
	p, q := shifted, trunked.stats
	p.R, p.MOS, q.R, q.MOS = 0, 0, 0, 0
	if p != q || trunked.stats.MOS > plain.stats.MOS || plain.stats.MOS-trunked.stats.MOS > 1e-5 {
		t.Fatalf("receiver stats diverged beyond the framing's %v:\nuntrunked %+v\ntrunked  %+v", framing, plain.stats, trunked.stats)
	}
	if plain.stats.MOS == 0 || plain.played == 0 {
		t.Fatalf("degenerate golden run: played=%d stats=%+v", plain.played, plain.stats)
	}
	if len(plain.rawData) != len(trunked.rawData) {
		t.Fatalf("raw arrival count diverged: %d vs %d", len(plain.rawData), len(trunked.rawData))
	}
	if len(plain.rawData) == 0 {
		t.Fatal("raw capture recorded nothing")
	}
	for i := range plain.rawData {
		if !bytes.Equal(plain.rawData[i], trunked.rawData[i]) {
			t.Fatalf("raw packet %d differs between variants", i)
		}
		if got := trunked.rawTimes[i].Sub(plain.rawTimes[i]); got != framing {
			t.Fatalf("raw packet %d arrives %v after its untrunked twin, the first %v", i, got, framing)
		}
	}

	// The equivalence is only meaningful if the trunk actually carried the
	// media: both gateways must have trunked every cross-island packet.
	for name, ts := range map[string]TrunkStats{"gwA": trunked.trunkA, "gwB": trunked.trunkB} {
		if ts.PayloadsBatched == 0 || ts.FramesSent == 0 || ts.FramesRecv == 0 {
			t.Fatalf("%s trunk never engaged: %+v", name, ts)
		}
		if ts.PayloadsDelivered != ts.PayloadsBatched {
			t.Fatalf("%s trunk dropped payloads: %+v", name, ts)
		}
	}
	if plain.trunkA.PayloadsBatched != 0 {
		t.Fatalf("untrunked run engaged a trunk: %+v", plain.trunkA)
	}
}

// TestTrunkBatchesConcurrentStreams checks the point of trunking: many
// concurrent streams crossing the same gateway pair collapse into far fewer
// Internet datagrams than the per-packet path needs.
func TestTrunkBatchesConcurrentStreams(t *testing.T) {
	sim := &fedSim{clk: clock.NewFake(time.Unix(4_000_000, 0))}
	inet := internet.New(internet.Config{Delay: 700 * time.Microsecond, Clock: sim.clk})
	t.Cleanup(inet.Close)

	a := buildTrunkIsland(t, sim.clk, "10.1", inet, true)
	b := buildTrunkIsland(t, sim.clk, "10.2", inet, true)

	connA, err := a.client.Listen(4000)
	if err != nil {
		t.Fatal(err)
	}
	sessA := rtp.NewSession(connA, 11)
	t.Cleanup(sessA.Close)

	const streams = 8
	const frames = 25
	var recvMu sync.Mutex
	received := 0
	for i := 0; i < streams; i++ {
		conn, err := b.client.Listen(uint16(5000 + i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(conn.Close)
		conn.Handle(func(*netem.Datagram) {
			recvMu.Lock()
			received++
			recvMu.Unlock()
		})
	}

	attach(t, a, b)
	handles := make([]*rtp.Stream, streams)
	for i := range handles {
		handles[i] = sessA.StartStream(b.client.ID(), uint16(5000+i), frames)
	}
	for _, st := range handles {
		st.Wait()
	}
	sim.clk.Sleep(200 * time.Millisecond)

	ts := a.gw.TrunkStats() // sender side: batching
	tr := b.gw.TrunkStats() // receiver side: fan-out
	if ts.PayloadsBatched != int64(streams*frames) {
		t.Fatalf("trunked payloads = %d, want %d (stats %+v)", ts.PayloadsBatched, streams*frames, ts)
	}
	if tr.PayloadsDelivered != ts.PayloadsBatched || tr.FramesRecv != ts.FramesSent {
		t.Fatalf("trunk dropped traffic: sent %+v, recv %+v", ts, tr)
	}
	recvMu.Lock()
	got := received
	recvMu.Unlock()
	if got != streams*frames {
		t.Fatalf("receivers saw %d packets, want %d", got, streams*frames)
	}
	// The whole point: 8 concurrent streams should need far fewer
	// inter-gateway datagrams than packets. Demand at least a 4x reduction.
	if ts.FramesSent*4 > ts.PayloadsBatched {
		t.Fatalf("trunk barely batched: %d frames for %d payloads (%+v)",
			ts.FramesSent, ts.PayloadsBatched, ts)
	}
}

// TestNetworkCloseFinishesStreams closes the networks under live cross-island
// streams and a parked trunk flush. Both are tasks still queued on a
// scheduler that is shutting down: every stream's Wait must return the frames
// sent so far instead of hanging, the flush is simply dropped, and once the
// rest is stopped every goroutine is gone.
func TestNetworkCloseFinishesStreams(t *testing.T) {
	base := runtime.NumGoroutine()
	t.Run("federation", func(t *testing.T) {
		sim := &fedSim{clk: clock.NewFake(time.Unix(5_000_000, 0))}
		inet := internet.New(internet.Config{Delay: 700 * time.Microsecond, Clock: sim.clk})
		t.Cleanup(inet.Close)
		a := buildTrunkIsland(t, sim.clk, "10.1", inet, true)
		b := buildTrunkIsland(t, sim.clk, "10.2", inet, true)

		connA, err := a.client.Listen(4000)
		if err != nil {
			t.Fatal(err)
		}
		sessA := rtp.NewSession(connA, 11)
		t.Cleanup(sessA.Close)
		attach(t, a, b)

		// Two streams in step: the second payload of each window waits for
		// the window's end, which is the parked flush.
		const frames = 1000
		handles := []*rtp.Stream{
			sessA.StartStream(b.client.ID(), 5000, frames),
			sessA.StartStream(b.client.ID(), 5001, frames),
		}
		parked := func() bool {
			tr := a.gw.trunk
			tr.mu.Lock()
			defer tr.mu.Unlock()
			for _, f := range tr.flows {
				f.mu.Lock()
				scheduled := f.scheduled
				f.mu.Unlock()
				if scheduled {
					return true
				}
			}
			return false
		}
		// The first pair has reached the gateway: the first payload went
		// inline, the second waits for the window's end. (Later windows end
		// at the instant the next pair arrives, where the gateway's radio
		// worker and its Internet worker race for the flow, so only this
		// first window is parked on every run.)
		sim.clk.Sleep(time.Millisecond)
		if !parked() || handles[0].Sent() < 1 {
			t.Fatalf("no flush parked after %d frames", handles[0].Sent())
		}

		inet.Network().Close()
		a.net.Close()
		for i, st := range handles {
			if got := st.Wait(); got == 0 || got >= frames {
				t.Fatalf("stream %d reports %d frames after early close, want partial", i, got)
			}
		}
		if got := a.gw.TrunkStats().PayloadsBatched; got == 0 {
			t.Fatal("trunk never engaged")
		}
	})
	if err := testutil.SettleGoroutines(base, 0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}
