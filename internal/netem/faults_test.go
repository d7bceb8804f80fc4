package netem

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"siphoc/internal/clock"
)

// faultRun is everything observable about one seeded fault-storm run; two
// runs of the same seed must compare equal field by field.
type faultRun struct {
	stats Stats
	log   []FaultRecord
	recv  map[NodeID][]string
}

// runFaultStorm drives fixed traffic over a 4-node chain on clock.Fake while
// a seeded FaultPlan degrades, cuts, partitions and heals the topology. All
// sends happen from this goroutine while the clock stands still, so the
// medium's RNG draw order — and with it every loss, delay and delivery — is
// a pure function of the seed.
func runFaultStorm(t *testing.T, seed int64) faultRun {
	t.Helper()
	clk := clock.NewFake(time.Unix(5_000_000, 0))
	n := NewNetwork(Config{
		BaseDelay:   200 * time.Microsecond,
		DelayJitter: time.Millisecond,
		LossRate:    0.05,
		Seed:        seed,
		Clock:       clk,
		// One delivery shard: broadcasts shard by source, so with two a
		// receiver's sequence would interleave by host scheduling.
		Shards: 1,
	})
	defer n.Close()

	ids := []NodeID{"a", "b", "c", "d"}
	hosts := make([]*Host, len(ids))
	var mu sync.Mutex
	recv := make(map[NodeID][]string)
	for i, id := range ids {
		h, err := n.AddHost(id, Position{X: float64(i) * 80})
		if err != nil {
			t.Fatal(err)
		}
		hosts[i] = h
		id := id
		if err := h.HandleFrames(KindService, func(f Frame) {
			mu.Lock()
			recv[id] = append(recv[id], string(f.Payload))
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}

	plan := NewFaultPlan(n, FaultPlanConfig{Seed: seed})
	plan.DegradeLink(10*time.Millisecond, "a", "b", LinkQuality{Loss: 0.5, ExtraDelay: 3 * time.Millisecond}).
		CutLink(20*time.Millisecond, "b", "c").
		Partition(30*time.Millisecond, []NodeID{"a", "b"}, []NodeID{"c", "d"}).
		HealPartition(45*time.Millisecond, []NodeID{"a", "b"}, []NodeID{"c", "d"}).
		HealLink(50*time.Millisecond, "b", "c").
		RestoreLink(55*time.Millisecond, "a", "b").
		SetLossRate(60*time.Millisecond, 0.2).
		FlapRandomLinks(65*time.Millisecond, 90*time.Millisecond, 3, 5*time.Millisecond, ids).
		At(95*time.Millisecond, "probe", func() {})
	if err := plan.Run(); err != nil {
		t.Fatal(err)
	}

	for round := range 60 {
		for i, h := range hosts {
			payload := fmt.Sprintf("r%d.%s", round, ids[i])
			if err := h.SendFrame(Broadcast, KindService, []byte(payload)); err != nil {
				t.Fatal(err)
			}
			dst := ids[(i+1)%len(ids)]
			if err := h.SendFrame(dst, KindService, []byte(payload+".u")); err != nil {
				t.Fatal(err)
			}
		}
		clk.Sleep(2 * time.Millisecond)
	}
	plan.Wait()
	plan.Stop()
	return faultRun{stats: n.Stats(), log: plan.Log(), recv: recv}
}

// TestFaultPlanReplaysBitIdentical is the determinism acceptance test: the
// same seeded FaultPlan against the same seeded medium and traffic replays
// bit-identically on clock.Fake — identical fault log, identical medium
// stats, identical per-receiver delivery sequences.
func TestFaultPlanReplaysBitIdentical(t *testing.T) {
	a := runFaultStorm(t, 7)
	b := runFaultStorm(t, 7)
	if a.stats != b.stats {
		t.Fatalf("stats diverged:\n a=%+v\n b=%+v", a.stats, b.stats)
	}
	if !reflect.DeepEqual(a.log, b.log) {
		t.Fatalf("fault log diverged:\n a=%v\n b=%v", a.log, b.log)
	}
	if !reflect.DeepEqual(a.recv, b.recv) {
		t.Fatalf("per-receiver delivery sequences diverged")
	}
	if len(a.log) == 0 {
		t.Fatal("no faults executed; test exercises nothing")
	}
	if a.stats.Lost == 0 {
		t.Fatal("loss model drew no losses; test exercises nothing")
	}
	// A different seed must still execute the same number of events (the
	// schedule length is seed-independent; only pair/offset choices vary).
	c := runFaultStorm(t, 8)
	if len(c.log) != len(a.log) {
		t.Fatalf("event counts depend on seed: %d vs %d", len(a.log), len(c.log))
	}
}

// TestLinkQualityLossOverride pins the per-link loss semantics: a loss=1
// override kills exactly that link while the rest of the medium is
// unaffected, and clearing it restores delivery.
func TestLinkQualityLossOverride(t *testing.T) {
	n := NewNetwork(Config{BaseDelay: 20 * time.Microsecond})
	defer n.Close()
	ha, err := n.AddHost("a", Position{})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := n.AddHost("b", Position{X: 50})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddHost("c", Position{X: 90}); err != nil {
		t.Fatal(err)
	}
	got := make(chan Frame, 16)
	if err := hb.HandleFrames(KindService, func(f Frame) { got <- f }); err != nil {
		t.Fatal(err)
	}

	n.SetLinkQuality("a", "b", LinkQuality{Loss: 1.0})
	if err := ha.SendFrame("b", KindService, []byte("dropped")); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-got:
		t.Fatalf("loss=1 link delivered %q", f.Payload)
	case <-time.After(30 * time.Millisecond):
	}
	if lost := n.Stats().Lost; lost == 0 {
		t.Fatal("override drop not counted in Stats.Lost")
	}

	n.ClearLinkQuality("a", "b")
	if err := ha.SendFrame("b", KindService, []byte("through")); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-got:
		if string(f.Payload) != "through" {
			t.Fatalf("unexpected frame %q", f.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cleared link did not deliver")
	}
}

// TestLinkQualityExtraDelay pins the latency override, for unicast and for
// the peeled-off broadcast receiver path.
func TestLinkQualityExtraDelay(t *testing.T) {
	clk := clock.NewFake(time.Unix(9_000_000, 0))
	n := NewNetwork(Config{BaseDelay: time.Millisecond, Clock: clk})
	defer n.Close()
	ha, err := n.AddHost("a", Position{})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := n.AddHost("b", Position{X: 50})
	if err != nil {
		t.Fatal(err)
	}
	hc, err := n.AddHost("c", Position{X: 90})
	if err != nil {
		t.Fatal(err)
	}
	_ = hc
	gotB := make(chan Frame, 16)
	gotC := make(chan Frame, 16)
	if err := hb.HandleFrames(KindService, func(f Frame) { gotB <- f }); err != nil {
		t.Fatal(err)
	}
	if err := hc.HandleFrames(KindService, func(f Frame) { gotC <- f }); err != nil {
		t.Fatal(err)
	}
	n.SetLinkQuality("a", "b", LinkQuality{ExtraDelay: 40 * time.Millisecond})

	// Broadcast: c keeps the base delay, b is peeled off by 40 ms.
	if err := ha.SendFrame(Broadcast, KindService, []byte("x")); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(2 * time.Millisecond)
	select {
	case <-gotC:
	default:
		t.Fatal("un-degraded broadcast receiver did not get the frame")
	}
	select {
	case <-gotB:
		t.Fatal("degraded receiver got the frame before its extra delay")
	default:
	}
	clk.Sleep(45 * time.Millisecond)
	select {
	case <-gotB:
	default:
		t.Fatal("degraded receiver never got the delayed frame")
	}

	// Unicast across the degraded link carries the extra delay too.
	if err := ha.SendFrame("b", KindService, []byte("y")); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(2 * time.Millisecond)
	select {
	case <-gotB:
		t.Fatal("degraded unicast arrived before its extra delay")
	default:
	}
	clk.Sleep(45 * time.Millisecond)
	select {
	case <-gotB:
	default:
		t.Fatal("degraded unicast never arrived")
	}
}

// TestPartitionSplitsAndHeals checks the partition builder against the
// adjacency view: cross-group links disappear, intra-group links stay, and
// the heal restores the original neighbourhoods. It runs on a fake clock, so
// the view is read at an instant inside the 10 ms partition, however busy the
// host.
func TestPartitionSplitsAndHeals(t *testing.T) {
	clk := clock.NewFake(time.Unix(5_000_000, 0))
	n := NewNetwork(Config{Range: 1000, BaseDelay: 20 * time.Microsecond, Clock: clk, Shards: 1})
	defer n.Close()
	ids := []NodeID{"a", "b", "c", "d"}
	for i, id := range ids {
		if _, err := n.AddHost(id, Position{X: float64(i) * 10}); err != nil {
			t.Fatal(err)
		}
	}
	before := n.Neighbors("b")
	if len(before) != 3 {
		t.Fatalf("dense topology expected 3 neighbours, got %v", before)
	}

	plan := NewFaultPlan(n, FaultPlanConfig{})
	plan.Partition(0, []NodeID{"a", "b"}, []NodeID{"c", "d"}).
		HealPartition(10*time.Millisecond, []NodeID{"a", "b"}, []NodeID{"c", "d"})
	if err := plan.Run(); err != nil {
		t.Fatal(err)
	}

	clk.Sleep(5 * time.Millisecond)
	if nb := n.Neighbors("b"); len(nb) != 1 || nb[0] != "a" {
		t.Fatalf("partitioned neighbours of b = %v, want [a]", nb)
	}
	plan.Wait()
	if nb := n.Neighbors("b"); len(nb) != 3 {
		t.Fatalf("healed neighbours of b = %v, want 3", nb)
	}
	if got := len(plan.Log()); got != 2 {
		t.Fatalf("fault log has %d records, want 2", got)
	}
}
