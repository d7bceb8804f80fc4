package siphoc

import (
	"sort"
	"testing"
	"time"
)

// BenchmarkGatewayFailover measures the gateway failover latency end to end:
// a node attached through one of two gateways loses it (graceful shutdown —
// the crash path is exercised by the core fault tests) and re-attaches to
// the survivor. Each iteration reports the Connection Provider's own
// detach-to-reattach measurement; p50/p99 land in BENCH_faults.json via
// `make faults`.
func BenchmarkGatewayFailover(b *testing.B) {
	sc, err := NewScenarioWith(WithInternet(0), WithoutObservability())
	if err != nil {
		b.Fatal(err)
	}
	defer sc.Close()
	node, err := sc.AddNode("10.0.0.1", Position{})
	if err != nil {
		b.Fatal(err)
	}
	gws := map[NodeID]Position{
		"10.0.0.2": {X: 60},
		"10.0.0.3": {X: 70},
	}
	for id, pos := range gws {
		if _, err := sc.AddNode(id, pos, WithGateway()); err != nil {
			b.Fatal(err)
		}
	}
	if err := sc.WaitAttached(node, 30*time.Second); err != nil {
		b.Fatal(err)
	}
	cp := node.ConnectionProvider()

	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for b.Loop() {
		dead := cp.Gateway()
		sc.RemoveNode(dead)
		deadline := time.Now().Add(30 * time.Second)
		for cp.Gateway() == dead || !cp.Attached() {
			if time.Now().After(deadline) {
				b.Fatalf("never failed over from %s", dead)
			}
			time.Sleep(2 * time.Millisecond)
		}
		lat = append(lat, cp.Stats().LastFailoverDur)
		// Bring the dead gateway back so the next iteration has a spare.
		if _, err := sc.AddNode(dead, gws[dead], WithGateway()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if len(lat) > 0 {
		p50 := lat[len(lat)/2]
		p99 := lat[(len(lat)*99)/100]
		b.ReportMetric(float64(p50)/float64(time.Millisecond), "p50-failover-ms")
		b.ReportMetric(float64(p99)/float64(time.Millisecond), "p99-failover-ms")
	}
}
