package overlay_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"siphoc/internal/netem"
)

// churnLookup is one recorded lookup outcome, with its virtual-time latency:
// the clock advances only when every worker is parked, so the same seed takes
// the same RPC timeouts to reach the same answer.
type churnLookup struct {
	AOR     string
	Value   string
	OK      bool
	Elapsed time.Duration
}

// churnResult is everything a seeded churn run produces that a replay must
// reproduce exactly.
type churnResult struct {
	Lookups []churnLookup
	Faults  []netem.FaultRecord
}

// runChurn executes one seeded churn run: build an N-node overlay, publish
// from stable owners, then crash and restart random non-owner nodes on a
// FaultPlan schedule while a stable client looks bindings up continuously.
func runChurn(t *testing.T, seed int64, nNodes, nPublishers, nEvents, nLookups int) churnResult {
	t.Helper()
	d := newDHTNet(t)
	defer d.close()
	cfg := baseConfig() // K=2 replicas
	d.buildCluster(nNodes, cfg)

	// Stable owners dht-1..dht-nPublishers publish one AOR each; their
	// re-publication loop is what heals replicas lost to churn.
	aors := make([]string, nPublishers)
	for i := range aors {
		aors[i] = fmt.Sprintf("user%d@dht.example", i)
		d.node(netem.NodeID(fmt.Sprintf("dht-%d", i+1))).
			Publish(aors[i], fmt.Sprintf("10.8.%d.1:5060", i))
	}
	d.fake.Sleep(100 * time.Millisecond)

	// Churn schedule: crash a random currently-up pool node every stepGap,
	// restart it outage later. The schedule is a pure function of the seed —
	// availability bookkeeping during building keeps picks valid (never crash
	// a node that is already down at that offset).
	const (
		firstFault = 1 * time.Second
		stepGap    = 400 * time.Millisecond
		outage     = 800 * time.Millisecond
	)
	var pool []netem.NodeID
	for i := nPublishers + 1; i < nNodes; i++ {
		pool = append(pool, netem.NodeID(fmt.Sprintf("dht-%d", i)))
	}
	rng := rand.New(rand.NewSource(seed))
	plan := netem.NewFaultPlan(d.inet.Network(), netem.FaultPlanConfig{Seed: seed})
	downUntil := make(map[netem.NodeID]time.Duration)
	planEnd := firstFault
	for ev := 0; ev < nEvents; ev++ {
		at := firstFault + time.Duration(ev)*stepGap
		victim := pool[rng.Intn(len(pool))]
		for downUntil[victim] > at {
			victim = pool[rng.Intn(len(pool))]
		}
		downUntil[victim] = at + outage
		name := victim
		plan.At(at, "crash "+string(name), func() { d.crash(name) })
		plan.At(at+outage, "restart "+string(name), func() { d.restart(name, cfg, "dht-0") })
		planEnd = at + outage
	}
	if err := plan.Run(); err != nil {
		t.Fatalf("fault plan: %v", err)
	}

	// Lookup loop: the stable client dht-0 resolves the published AORs
	// round-robin while the churn plays out.
	res := churnResult{Lookups: make([]churnLookup, nLookups)}
	client := d.node("dht-0")
	for i := 0; i < nLookups; i++ {
		start := d.fake.Now()
		v, ok := d.lookupVia(client, aors[i%len(aors)], 2*time.Second)
		res.Lookups[i] = churnLookup{AOR: aors[i%len(aors)], Value: v, OK: ok, Elapsed: d.fake.Now().Sub(start)}
		d.fake.Sleep(30 * time.Millisecond)
	}

	// Let any remaining scheduled faults fire so the log is complete.
	if rest := planEnd + time.Second - d.fake.Now().Sub(d.start); rest > 0 {
		d.fake.Sleep(rest)
	}
	plan.Wait()
	res.Faults = plan.Log()
	return res
}

// TestOverlayChurnProperty is the seeded churn acceptance test: under a
// crash/restart schedule hitting the overlay every 400 ms, a stable client's
// lookup success rate stays >= 99% with K=2 replication, and every lookup
// outcome, its latency and the executed fault log replay identically for the
// same seed.
func TestOverlayChurnProperty(t *testing.T) {
	nNodes, nPublishers, nEvents, nLookups := 64, 12, 24, 240
	if testing.Short() || raceEnabled {
		nNodes, nPublishers, nEvents, nLookups = 32, 8, 12, 96
	}

	first := runChurn(t, 42, nNodes, nPublishers, nEvents, nLookups)

	okCount := 0
	for _, l := range first.Lookups {
		if l.OK {
			okCount++
		}
	}
	if min := (len(first.Lookups)*99 + 99) / 100; okCount < min {
		t.Errorf("lookup success %d/%d, want >= %d (99%%)", okCount, len(first.Lookups), min)
	}
	if got, want := len(first.Faults), 2*nEvents; got != want {
		t.Errorf("executed %d faults, want %d", got, want)
	}

	second := runChurn(t, 42, nNodes, nPublishers, nEvents, nLookups)
	if !reflect.DeepEqual(first.Faults, second.Faults) {
		t.Errorf("fault logs diverged between same-seed runs:\n%v\n%v", first.Faults, second.Faults)
	}
	if !reflect.DeepEqual(first.Lookups, second.Lookups) {
		for i := range first.Lookups {
			if first.Lookups[i] != second.Lookups[i] {
				t.Errorf("lookup %d diverged: %+v vs %+v", i, first.Lookups[i], second.Lookups[i])
				break
			}
		}
	}
}
