package overlay_test

import (
	"fmt"
	"testing"
	"time"

	"siphoc/internal/netem"
)

// BenchmarkOverlayLookup pins the end-to-end cost of one iterative DHT
// lookup on a 32-node overlay driven in virtual time: allocs/op is the whole
// system's allocation bill per lookup (client iteration, routing fan-out,
// every RPC on both ends, the event-loop driving), and lookup_ms is the
// virtual-time latency a caller observes. Both are guarded by cmd/benchcmp
// against the committed BENCH_dht.json (>25% growth fails `make bench`).
func BenchmarkOverlayLookup(b *testing.B) {
	d := newDHTNet(b)
	defer d.close()
	cfg := baseConfig()
	d.buildCluster(32, cfg)

	const nAORs = 16
	aors := make([]string, nAORs)
	for i := range aors {
		aors[i] = fmt.Sprintf("user%d@dht.example", i)
		d.node(netem.NodeID(fmt.Sprintf("dht-%d", i+1))).
			Publish(aors[i], fmt.Sprintf("10.8.%d.1:5060", i))
	}
	d.fake.Sleep(100 * time.Millisecond)

	client := d.node("dht-0")
	b.ReportAllocs()
	b.ResetTimer()
	var virt time.Duration
	for i := 0; i < b.N; i++ {
		before := d.fake.Now()
		if _, ok := d.lookupVia(client, aors[i%nAORs], 2*time.Second); !ok {
			b.Fatalf("lookup %d missed on an idle overlay", i)
		}
		virt += d.fake.Now().Sub(before)
	}
	b.ReportMetric(virt.Seconds()*1e3/float64(b.N), "lookup_ms")
}
