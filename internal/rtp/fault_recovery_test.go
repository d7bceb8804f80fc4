package rtp

// Golden recovery trace: a seeded netem.FaultPlan partitions a 3-hop chain
// mid-stream and heals it, all on clock.Fake. The run pins the recovered
// frame count, the failover latency (heal to first post-heal delivery) and
// the post-heal MOS bit-identically — the determinism contract of the fault
// subsystem, checked end to end through the media plane.

import (
	"fmt"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
)

// partitionHealResult is everything a recovery run pins.
type partitionHealResult struct {
	sent      int
	delivered int64
	lost      int64
	recovery  time.Duration // heal to first post-heal delivery
	faultLog  string
	mos       string
	r         string
}

const healOffset = 1000 * time.Millisecond

func runPartitionHeal(t *testing.T) partitionHealResult {
	t.Helper()
	sim := &chainSim{clk: clock.NewFake(time.Unix(4_000_000, 0))}
	sim.net = netem.NewNetwork(netem.Config{
		BaseDelay:   700 * time.Microsecond,
		DelayJitter: 2 * time.Millisecond,
		LossRate:    0.05,
		Seed:        9,
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

	west, east := []netem.NodeID{"a", "b"}, []netem.NodeID{"c", "d"}
	plan := netem.NewFaultPlan(sim.net, netem.FaultPlanConfig{Seed: 5})
	plan.Partition(400*time.Millisecond, west, east)
	plan.HealPartition(healOffset, west, east)
	defer plan.Stop()

	const frames = 120 // 2.4 s of voice at the 20 ms cadence
	st := sa.StartStream("d", 4001, frames)
	if err := plan.Run(); err != nil {
		t.Fatal(err)
	}

	// Recovery is read to the millisecond: the first one after the heal
	// at which a new frame has arrived.
	var res partitionHealResult
	res.recovery = -1
	sim.clk.Sleep(healOffset)
	preHeal := sd.Stats().Received
	for at := time.Millisecond; at <= 300*time.Millisecond; at += time.Millisecond {
		sim.clk.Sleep(time.Millisecond)
		if sd.Stats().Received > preHeal {
			res.recovery = at
			break
		}
	}
	res.sent = st.Wait()
	sim.clk.Sleep(300 * time.Millisecond) // flush in-flight deliveries and the playout buffer
	stats := sd.Stats()
	res.delivered = stats.Received
	res.lost = stats.Lost
	res.mos = fmt.Sprintf("%.6f", stats.MOS)
	res.r = fmt.Sprintf("%.6f", stats.R)
	for _, rec := range plan.Log() {
		res.faultLog += rec.String() + "\n"
	}
	return res
}

func TestPartitionHealGoldenRecovery(t *testing.T) {
	run1 := runPartitionHeal(t)
	run2 := runPartitionHeal(t)
	if run1 != run2 {
		t.Fatalf("seeded recovery run diverged:\nrun1 %+v\nrun2 %+v", run1, run2)
	}
	if run1.sent != 120 {
		t.Fatalf("sent = %d, want 120", run1.sent)
	}
	if run1.recovery < 0 {
		t.Fatal("no delivery after the heal: media never recovered")
	}
	if run1.delivered <= run1.lost {
		t.Fatalf("delivered %d <= lost %d: partition dominated the stream", run1.delivered, run1.lost)
	}
	// Golden values of the seeded run (netem seed 9, plan seed 5): ~30 of
	// the 120 frames fall into the 600 ms partition, background loss takes
	// a few more, and the first post-heal frame lands within one cadence of
	// the heal. Any drift here means the fault layer's determinism broke.
	// Recovery and MOS were re-recorded (8 ms → 6 ms, 2.079666 → 2.083177)
	// when the clock began stopping at every deadline instead of being
	// stepped 2 ms at a time; the counts did not move.
	golden := partitionHealResult{
		sent:      120,
		delivered: 81,
		lost:      38,
		recovery:  6 * time.Millisecond,
		faultLog:  run1.faultLog, // asserted separately below
		mos:       run1.mos,
		r:         run1.r,
	}
	if run1.sent != golden.sent || run1.delivered != golden.delivered || run1.lost != golden.lost || run1.recovery != golden.recovery {
		t.Errorf("recovery numbers drifted from golden:\n got  sent=%d delivered=%d lost=%d recovery=%v\n want sent=%d delivered=%d lost=%d recovery=%v",
			run1.sent, run1.delivered, run1.lost, run1.recovery,
			golden.sent, golden.delivered, golden.lost, golden.recovery)
	}
	wantLog := "[   400ms] net.partition  [a b] | [c d]\n" +
		"[      1s] net.heal       [a b] | [c d]\n"
	if run1.faultLog != wantLog {
		t.Errorf("fault log drifted:\n got:\n%s want:\n%s", run1.faultLog, wantLog)
	}
	if run1.mos != "2.083177" {
		t.Errorf("post-heal MOS = %s, golden 2.083177", run1.mos)
	}
}
