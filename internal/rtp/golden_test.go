package rtp

// Equivalence tests for the media-plane fast path: the golden numbers below
// were captured from the pre-pacer, pre-zero-copy implementation (goroutine
// per stream, allocating codec, map-scan jitter buffer) on the exact traces
// reproduced here. The rewrite must change no accounting — played/late/
// missing, loss, delay, jitter and the E-model MOS all stay bit-identical.

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
)

// runJBTrace feeds a seeded loss/reorder trace through the jitter buffer:
// 200 frames at the 20 ms cadence, 10% dropped, arrival skewed by up to
// 80 ms of jitter against a 25 ms playout delay, with PopDue ticking every
// 5 ms interleaved with arrivals.
func runJBTrace(seed int64) (played, late, missing int64) {
	rng := rand.New(rand.NewSource(seed))
	jb := NewJitterBuffer(25 * time.Millisecond)
	base := time.Unix(1000, 0)
	type arrival struct {
		seq uint32
		at  time.Time
	}
	var arr []arrival
	for i := range 200 {
		if rng.Float64() < 0.1 {
			continue // lost in the network
		}
		at := base.Add(time.Duration(i)*FrameDuration + time.Duration(rng.Int63n(int64(80*time.Millisecond))))
		arr = append(arr, arrival{uint32(i), at})
	}
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].at.Before(arr[j].at) })
	tick := base
	for _, a := range arr {
		for !tick.After(a.at) {
			jb.PopDue(tick)
			tick = tick.Add(5 * time.Millisecond)
		}
		jb.Put(NewVoiceFrame(1, a.seq, base), a.at)
	}
	jb.PopDue(base.Add(10 * time.Second))
	return jb.Played(), jb.Late(), jb.Missing()
}

func TestJitterBufferGoldenTrace(t *testing.T) {
	golden := []struct {
		seed                  int64
		played, late, missing int64
	}{
		{1, 161, 16, 39},
		{2, 164, 14, 36},
		{3, 158, 18, 42},
		{4, 162, 14, 38},
		{5, 173, 12, 27},
	}
	for _, g := range golden {
		p, l, m := runJBTrace(g.seed)
		if p != g.played || l != g.late || m != g.missing {
			t.Errorf("seed %d: played/late/missing = %d/%d/%d, golden %d/%d/%d",
				g.seed, p, l, m, g.played, g.late, g.missing)
		}
	}
}

// staticRoutes is a fixed next-hop table, bypassing the routing protocols.
type staticRoutes struct{ next map[netem.NodeID]netem.NodeID }

func (r staticRoutes) NextHop(dst netem.NodeID) (netem.NodeID, bool) {
	nh, ok := r.next[dst]
	return nh, ok
}
func (r staticRoutes) RequestRoute(dst netem.NodeID, done func(bool)) {
	_, ok := r.next[dst]
	done(ok)
}

// lineChain adds hosts "a".."d" spaced one radio hop apart with static line
// routes, returning them in order.
func lineChain(t *testing.T, n *netem.Network, ids []netem.NodeID) []*netem.Host {
	t.Helper()
	hosts := make([]*netem.Host, len(ids))
	for i, id := range ids {
		h, err := n.AddHost(id, netem.Position{X: float64(i) * 90})
		if err != nil {
			t.Fatal(err)
		}
		hosts[i] = h
	}
	for i, h := range hosts {
		next := make(map[netem.NodeID]netem.NodeID)
		for j, id := range ids {
			if j == i {
				continue
			}
			if j > i {
				next[id] = ids[i+1]
			} else {
				next[id] = ids[i-1]
			}
		}
		h.SetRouteProvider(staticRoutes{next: next})
	}
	return hosts
}

// chainSim is a lossy line of hosts on a fake clock, with a raw capture of
// frame arrival order.
type chainSim struct {
	clk     *clock.Fake
	net     *netem.Network
	rawMu   sync.Mutex
	rawSeqs []uint16
}

// TestChainGoldenPlayout streams 80 voice frames over a seeded lossy 3-hop
// chain on a fake clock and checks every quality number against the golden
// run. The counts are the pre-rewrite implementation's; delay, jitter, R and
// MOS were re-recorded when the clock began stopping at every deadline
// instead of being stepped 2 ms at a time, which had added up to 2 ms of
// step lag to every hop.
func TestChainGoldenPlayout(t *testing.T) {
	sim := &chainSim{clk: clock.NewFake(time.Unix(1_000_000, 0))}
	sim.net = netem.NewNetwork(netem.Config{
		BaseDelay:   700 * time.Microsecond,
		DelayJitter: 2 * time.Millisecond,
		LossRate:    0.08,
		Seed:        7,
		Clock:       sim.clk,
	})
	defer sim.net.Close()
	hosts := lineChain(t, sim.net, []netem.NodeID{"a", "b", "c", "d"})
	ca, err := hosts[0].Listen(4000)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := hosts[3].Listen(4001)
	if err != nil {
		t.Fatal(err)
	}
	sa := NewSession(ca, 11)
	sd := NewSession(cd, 22)
	defer sa.Close()
	defer sd.Close()

	const frames = 80
	st := sa.StartStream("d", 4001, frames)
	sent := st.Wait()
	sim.clk.Sleep(300 * time.Millisecond) // flush in-flight deliveries and the playout buffer

	if sent != frames {
		t.Fatalf("sent = %d, want %d", sent, frames)
	}
	played, late, missing := sd.PlayoutStats()
	if played != 61 || late != 0 || missing != 18 {
		t.Fatalf("playout = %d/%d/%d, golden 61/0/18", played, late, missing)
	}
	stats := sd.Stats()
	if stats.Received != 61 || stats.Lost != 18 || stats.Expected != 79 {
		t.Fatalf("received/lost/expected = %d/%d/%d, golden 61/18/79",
			stats.Received, stats.Lost, stats.Expected)
	}
	if got := stats.AvgDelay.String(); got != "5.182574ms" {
		t.Errorf("avg delay = %s, golden 5.182574ms", got)
	}
	if got := stats.Jitter.String(); got != "901.071µs" {
		t.Errorf("jitter = %s, golden 901.071µs", got)
	}
	if got := fmt.Sprintf("%.6f", stats.MOS); got != "2.496791" {
		t.Errorf("MOS = %s, golden 2.496791", got)
	}
	if got := fmt.Sprintf("%.6f", stats.R); got != "48.506896" {
		t.Errorf("R = %s, golden 48.506896", got)
	}
}

// runPacedChain runs two concurrent streams from one session over the lossy
// chain — one into a receiving Session, one into a raw port that records
// frame arrival order — and returns everything observable about the run.
func runPacedChain(t *testing.T) (sent int, played, late, missing int64, stats Stats, order []uint16) {
	sim := &chainSim{clk: clock.NewFake(time.Unix(2_000_000, 0))}
	sim.net = netem.NewNetwork(netem.Config{
		BaseDelay:   700 * time.Microsecond,
		DelayJitter: 1500 * time.Microsecond,
		LossRate:    0.08,
		Seed:        3,
		Clock:       sim.clk,
	})
	defer sim.net.Close()
	hosts := lineChain(t, sim.net, []netem.NodeID{"a", "b", "c", "d"})
	ca, err := hosts[0].Listen(4000)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := hosts[3].Listen(4001)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := hosts[3].Listen(4002)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	sa := NewSession(ca, 11)
	sd := NewSession(cd, 22)
	defer sa.Close()
	defer sd.Close()
	raw.Handle(func(dg *netem.Datagram) {
		var pkt Packet
		if ParseInto(&pkt, dg.Data) != nil {
			return
		}
		sim.rawMu.Lock()
		sim.rawSeqs = append(sim.rawSeqs, pkt.Seq)
		sim.rawMu.Unlock()
	})

	// The two streams are offset by half the frame cadence: the 3-hop path
	// spans at most ~6.6 ms, so only one frame is ever in flight and every
	// RNG draw on the medium happens in a causally forced order — run-to-run
	// divergence can then only come from the pacer itself.
	const frames = 40
	st1 := sa.StartStream("d", 4001, frames)
	sim.clk.Sleep(10 * time.Millisecond)
	st2 := sa.StartStream("d", 4002, frames)
	st1.Wait()
	st2.Wait()
	sim.clk.Sleep(300 * time.Millisecond)

	if got := st2.Wait(); got != frames {
		t.Fatalf("raw stream sent = %d, want %d", got, frames)
	}
	sent = st1.Wait()
	played, late, missing = sd.PlayoutStats()
	stats = sd.Stats()
	raw.Close()
	sim.rawMu.Lock()
	order = append([]uint16(nil), sim.rawSeqs...)
	sim.rawMu.Unlock()
	return sent, played, late, missing, stats, order
}

// TestPacerDeterminism runs the same seeded two-stream scenario twice and
// demands identical frame arrival order and identical playout/quality
// accounting: the shared pacer must not introduce any run-to-run variance
// on a fake clock.
func TestPacerDeterminism(t *testing.T) {
	sent1, p1, l1, m1, stats1, order1 := runPacedChain(t)
	sent2, p2, l2, m2, stats2, order2 := runPacedChain(t)
	if sent1 != sent2 || p1 != p2 || l1 != l2 || m1 != m2 {
		t.Fatalf("playout diverged: run1 sent=%d %d/%d/%d, run2 sent=%d %d/%d/%d",
			sent1, p1, l1, m1, sent2, p2, l2, m2)
	}
	if stats1 != stats2 {
		t.Fatalf("stats diverged:\nrun1 %+v\nrun2 %+v", stats1, stats2)
	}
	if len(order1) != len(order2) {
		t.Fatalf("arrival count diverged: %d vs %d", len(order1), len(order2))
	}
	for i := range order1 {
		if order1[i] != order2[i] {
			t.Fatalf("arrival order diverged at %d: seq %d vs %d", i, order1[i], order2[i])
		}
	}
	if len(order1) == 0 {
		t.Fatal("raw stream recorded no arrivals")
	}
}
