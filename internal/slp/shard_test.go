package slp

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/routing"
)

// newShardAgent builds an unstarted agent on a throwaway single-host,
// single-shard network with a fake clock, so tests can drive Incoming/Outgoing
// directly and advance time deterministically.
func newShardAgent(t *testing.T, cfg Config) (*Agent, *clock.Fake) {
	t.Helper()
	fc := clock.NewFake(time.Unix(1_000_000, 0))
	net := netem.NewNetwork(netem.Config{Clock: fc, Shards: 1})
	t.Cleanup(net.Close)
	h, err := net.AddHost("self", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAgent(h, cfg)
	conn, err := h.Listen(Port)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	a.conn = conn
	return a, fc
}

// handlePayload delivers p as a unicast datagram would: encoded, through the
// one receive path.
func (a *Agent) handlePayload(p *Payload) { a.receive(p.Marshal()) }

func (a *Agent) seenLen() int {
	a.qmu.Lock()
	defer a.qmu.Unlock()
	return len(a.seenQ)
}

func (a *Agent) relayLen() int {
	a.qmu.Lock()
	defer a.qmu.Unlock()
	return len(a.relayQ)
}

// TestSeenQueryBoundedUnderLoad pins the fix for the unbounded seenQ growth:
// sustained unique query traffic must never grow the dedup set past the hard
// cap, and entries whose retention deadline passed must be pruned lazily
// without a full map sweep.
func TestSeenQueryBoundedUnderLoad(t *testing.T) {
	a, fc := newShardAgent(t, Config{QueryRelayTTL: 100 * time.Millisecond})

	// 3× the cap of unique queries from distinct origins, all unanswerable
	// (empty cache) so each marches through the dedup+relay path.
	total := 3 * seenQHardCap
	for i := 0; i < total; i++ {
		a.handlePayload(&Payload{Queries: []Query{{
			Type:   "sip",
			Key:    fmt.Sprintf("user%d@example", i),
			Origin: netem.NodeID(fmt.Sprintf("n%d", i)),
			ID:     uint32(i),
			Hops:   4,
		}}})
	}
	if n := a.seenLen(); n > seenQHardCap {
		t.Fatalf("seenQ grew to %d entries under load, cap is %d", n, seenQHardCap)
	}
	if n := a.seenLen(); n < seenQHardCap/2 {
		t.Fatalf("seenQ holds only %d entries; eviction is discarding live state", n)
	}

	// Once the retention deadline (4×relayTTL) passes, the next insert must
	// drain the expired backlog instead of accumulating alongside it.
	fc.Advance(time.Second)
	a.handlePayload(&Payload{Queries: []Query{{Type: "sip", Key: "late", Origin: "late", ID: 1, Hops: 4}}})
	if n := a.seenLen(); n > 8 {
		t.Fatalf("seenQ holds %d entries after all deadlines passed, want ~1", n)
	}

	// The relay set is pruned on the Outgoing path; after the TTL passed
	// nothing should still be riding control messages.
	a.Outgoing(routing.Outgoing{Budget: 1200})
	if n := a.relayLen(); n > 1 {
		t.Fatalf("relayQ holds %d entries after TTL expiry, want ≤1", n)
	}
}

// TestSeenQueryInsertExpiryAllocFree pins the dedup set's steady state — one
// key expires off the deadline heap as the next is inserted — at zero
// allocations: the heap is typed, so nothing is boxed on push or pop.
func TestSeenQueryInsertExpiryAllocFree(t *testing.T) {
	a, fc := newShardAgent(t, Config{QueryRelayTTL: 100 * time.Millisecond})
	keys := [2]qkey{{"n1", 1}, {"n2", 2}}
	now, i := fc.Now(), 0
	allocs := testing.AllocsPerRun(1000, func() {
		a.qmu.Lock()
		a.markSeenLocked(keys[i%2], now)
		a.qmu.Unlock()
		now, i = now.Add(time.Second), i+1 // past the 400 ms retention
	})
	if allocs != 0 {
		t.Errorf("seen-query insert + expiry: %v allocations, want 0", allocs)
	}
	if n := a.seenLen(); n != 1 {
		t.Errorf("seenQ holds %d entries, want the last one only", n)
	}
}

// TestSeenQueryDedupSurvivesEviction checks the dedup property still holds
// for recent queries after older ones were cap-evicted.
func TestSeenQueryDedupSurvivesEviction(t *testing.T) {
	a, _ := newShardAgent(t, Config{QueryRelayTTL: 100 * time.Millisecond})
	for i := 0; i < seenQHardCap+100; i++ {
		a.handlePayload(&Payload{Queries: []Query{{
			Type: "sip", Key: "k",
			Origin: netem.NodeID(fmt.Sprintf("n%d", i)), ID: uint32(i), Hops: 2,
		}}})
	}
	relayed := a.Stats().QueriesRelayed
	// Re-deliver the most recent query: it must still be recognised.
	last := seenQHardCap + 99
	a.handlePayload(&Payload{Queries: []Query{{
		Type: "sip", Key: "k",
		Origin: netem.NodeID(fmt.Sprintf("n%d", last)), ID: uint32(last), Hops: 2,
	}}})
	if got := a.Stats().QueriesRelayed; got != relayed {
		t.Fatalf("duplicate of a recent query was re-relayed (%d -> %d)", relayed, got)
	}
}

// TestOutgoingScratchDoesNotAlias verifies the copy-out contract of the
// reused piggyback encoding buffer: bytes returned from one call must stay
// intact when a later call reuses the scratch writer.
func TestOutgoingScratchDoesNotAlias(t *testing.T) {
	a, _ := newShardAgent(t, Config{})
	if err := a.Register(Service{Type: "sip", Key: "alice", URL: ServiceURL("sip", "10.0.0.1:5060")}); err != nil {
		t.Fatal(err)
	}
	first := a.Outgoing(routing.Outgoing{Budget: 1200})
	if first == nil {
		t.Fatal("no payload with a local registration pending")
	}
	snapshot := append([]byte(nil), first...)

	// Register a second, longer service and re-encode: the scratch buffer is
	// rewritten, but the earlier return value must not change.
	if err := a.Register(Service{Type: "sip", Key: "bob-with-a-much-longer-key", URL: ServiceURL("sip", "10.0.0.2:5060")}); err != nil {
		t.Fatal(err)
	}
	second := a.Outgoing(routing.Outgoing{Budget: 1200})
	if second == nil {
		t.Fatal("no payload on second call")
	}
	if !bytes.Equal(first, snapshot) {
		t.Fatal("earlier Outgoing result mutated by a later call: scratch buffer aliased")
	}
	if p, err := ParsePayload(second); err != nil || len(p.Adverts) != 2 {
		t.Fatalf("second payload parse = %v, adverts = %+v", err, p)
	}
}
