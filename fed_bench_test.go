// Federation scale study: the paper's single MANET / single provider setup
// (§5) federated into K islands × M gateways over a sharded provider tier.
// BenchmarkFederation drives a 3×2 federation through a ramped call-generator
// workload of 1000 concurrent cross-island calls, reporting setup-latency and
// MOS percentiles from the obs histograms plus the inter-gateway frame counts
// that quantify trunk multiplexing. The federation runs in virtual time, so
// ns/op is the simulator's wall time per point and every other metric is
// protocol time. Run via `make fed` (-benchtime 1x), gated against and
// committed as BENCH_fed.json; the trunked/untrunked pair is the
// before/after table in EXPERIMENTS.md. With -short it runs 50 calls.
package siphoc_test

import (
	"fmt"
	"testing"
	"time"

	"siphoc"
)

func BenchmarkFederation(b *testing.B) {
	calls := 1000
	if testing.Short() {
		calls = 50
	}
	for _, trunked := range []bool{true, false} {
		mode := "untrunked"
		if trunked {
			mode = "trunked"
		}
		b.Run(fmt.Sprintf("islands_3x2/calls_%d/%s", calls, mode), func(b *testing.B) {
			for b.Loop() {
				runFederationPoint(b, trunked, calls)
			}
		})
	}
}

func runFederationPoint(b *testing.B, trunked bool, calls int) {
	fed, err := siphoc.NewFederationScenario(siphoc.FederationConfig{
		Islands:           3,
		GatewaysPerIsland: 2,
		ClientsPerIsland:  6,
		Shards:            4,
		Trunk:             trunked,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer fed.Close()
	if err := fed.WaitAttached(time.Minute); err != nil {
		b.Fatal(err)
	}

	rep, err := fed.NewCallGenerator(siphoc.CallGenConfig{Concurrent: calls}).Run()
	if err != nil {
		b.Fatal(err)
	}
	if rep.Established == 0 {
		b.Fatalf("no calls established: %+v", rep)
	}
	if rep.Failed > 0 {
		// The failure breakdown, and whether the islands' Internet access
		// or the registrations churned while the calls ramped.
		var reg, det, fo int64
		for _, sc := range fed.Islands() {
			m := sc.Metrics()
			for _, cs := range m.ConnProviders {
				det += cs.Detaches
				fo += cs.Failovers
			}
			for _, ps := range m.Proxies {
				reg += ps.Registers
			}
		}
		b.Logf("%d failed: %v; detaches=%d failovers=%d proxyRegisters=%d",
			rep.Failed, rep.FailureReasons, det, fo, reg)
	}

	b.ReportMetric(float64(rep.Established), "established")
	b.ReportMetric(float64(rep.Failed), "failed")
	b.ReportMetric(float64(rep.PeakConcurrent), "peak_concurrent")
	b.ReportMetric(float64(rep.SetupP50.Milliseconds()), "setup_p50_ms")
	b.ReportMetric(float64(rep.SetupP99.Milliseconds()), "setup_p99_ms")
	b.ReportMetric(rep.MOSP10, "mos_p10")
	b.ReportMetric(rep.MOSP50, "mos_p50")
	// Inter-gateway datagrams on the Internet during the workload: the
	// trunked/untrunked ratio of this metric is the packet-rate reduction.
	b.ReportMetric(float64(rep.InternetDataFrames), "inet_data_frames")
	if trunked && rep.Trunk.FramesSent > 0 {
		b.ReportMetric(
			float64(rep.Trunk.PayloadsBatched)/float64(rep.Trunk.FramesSent),
			"payloads/trunkframe")
	}
}
