package slp

import (
	"bytes"
	"fmt"
	"reflect"
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
	return len(a.seenQ.m)
}

func (a *Agent) relayLen() int {
	a.qmu.Lock()
	defer a.qmu.Unlock()
	return len(a.relayQ.m)
}

// TestSeenQueryBoundedUnderLoad pins the fix for the unbounded seenQ growth:
// sustained unique query traffic must never grow the dedup set past the hard
// cap, and entries whose retention deadline passed must be pruned lazily
// without a full map sweep.
func TestSeenQueryBoundedUnderLoad(t *testing.T) {
	a, fc := newShardAgent(t, Config{})

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

	// Once the retention deadline (4×queryRelayTTL) passes, the next insert
	// must drain the expired backlog instead of accumulating alongside it.
	fc.Sleep(4 * queryRelayTTL)
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
// key expires off the head of the expiry queue as the next is inserted — at
// zero allocations: the queue is typed and reuses its ring, so nothing is
// boxed or grown on push or pop.
func TestSeenQueryInsertExpiryAllocFree(t *testing.T) {
	a, fc := newShardAgent(t, Config{})
	keys := [2]qkey{{"n1", 1}, {"n2", 2}}
	now, i := fc.Now(), 0
	allocs := testing.AllocsPerRun(1000, func() {
		a.qmu.Lock()
		a.markSeenLocked(keys[i%2], now)
		a.qmu.Unlock()
		now, i = now.Add(5*queryRelayTTL), i+1 // past the 4×queryRelayTTL retention
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
	a, _ := newShardAgent(t, Config{})
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

// TestAppendOutgoingAppendsInPlace: the extension is written straight into
// the frame it is handed. What was in b stays as it was; what is appended is
// the Payload.AppendTo encoding of a payload with the digest, adverts and
// every query riding along, sorted — the relayed ones on a broadcast only —
// and parses back to it; and with room in b, a broadcast's extension
// allocates nothing, however many queries it sorts.
func TestAppendOutgoingAppendsInPlace(t *testing.T) {
	a, _ := newShardAgent(t, Config{})
	if err := a.Register(Service{Type: "sip", Key: "alice@x", URL: ServiceURL("sip", "self:5060")}); err != nil {
		t.Fatal(err)
	}
	// This node's own lookups ride every message.
	const own = 8
	for i := range own {
		a.LookupAsync("sip", fmt.Sprintf("w%d@x", i), time.Hour, func(Service, error) {})
	}
	const queries = 40
	for i := range queries {
		p := &Payload{Queries: []Query{{Type: "sip", Key: fmt.Sprintf("v%d@x", i), Origin: netem.NodeID(fmt.Sprintf("q%d", queries-i)), ID: 1, Hops: 4}}}
		if i < 3 {
			p.Adverts = []Advert{{Type: "sip", Key: fmt.Sprintf("u%d@x", i), URL: ServiceURL("sip", "n:5060"), Origin: netem.NodeID(fmt.Sprintf("n%d", i)), Seq: 1, TTL: time.Minute}}
		}
		a.handlePayload(p)
	}
	prefix := []byte("routing header")
	b := append(make([]byte, 0, netem.MTU), prefix...)
	budget := netem.MTU - len(prefix)
	for _, dst := range []netem.NodeID{netem.Broadcast, "n1"} {
		out := a.AppendOutgoing(b, routing.Outgoing{Dst: dst, Budget: budget})
		if !bytes.Equal(out[:len(prefix)], prefix) || &out[0] != &b[0] {
			t.Fatalf("to %q: the frame's prefix was moved or rewritten: %q", dst, out[:len(prefix)])
		}
		ext := out[len(prefix):]
		want := own
		if dst == netem.Broadcast {
			want += queries
		}
		p, err := ParsePayload(ext)
		if err != nil || p.Digest == nil || len(p.Adverts) == 0 || len(p.Queries) != want {
			t.Fatalf("to %q: extension %+v (%v), want a digest, adverts and %d queries", dst, p, err, want)
		}
		if enc := p.AppendTo(nil); !bytes.Equal(enc, ext) {
			t.Fatalf("to %q: appended\n%x\nbut its payload encodes as\n%x", dst, ext, enc)
		}
	}
	var out []byte
	if allocs := testing.AllocsPerRun(100, func() {
		out = a.AppendOutgoing(b, routing.Outgoing{Dst: netem.Broadcast, Budget: budget})
	}); allocs != 0 {
		t.Fatalf("a broadcast's extension allocates %v times with room in the frame, want 0", allocs)
	}
	if p, err := ParsePayload(out[len(prefix):]); err != nil || len(p.Adverts) != 4 {
		t.Fatalf("the last broadcast carried %+v (%v), want the whole table: no neighbour's digest was heard", p, err)
	}
}

// TestExpiredQueryKeyIsRelayedAgain: a dedup key counts only until its
// deadline. A node that restarts numbers its queries from 1 again, and after a
// quiet spell longer than the dedup lifetime its (origin, 1) is a new query,
// to be relayed, not a duplicate of the one its earlier life sent.
func TestExpiredQueryKeyIsRelayedAgain(t *testing.T) {
	const ttl = queryRelayTTL
	a, fc := newShardAgent(t, Config{})
	q := &Payload{Queries: []Query{{Type: "sip", Key: "bob@x", Origin: "X", ID: 1, Hops: 4}}}
	a.handlePayload(q)
	if got := a.Stats().QueriesRelayed; got != 1 {
		t.Fatalf("first query relayed %d times, want 1", got)
	}
	a.handlePayload(q)
	if got := a.Stats().QueriesRelayed; got != 1 {
		t.Fatalf("a duplicate within the dedup lifetime was relayed (%d)", got)
	}
	fc.Sleep(4 * ttl)
	a.handlePayload(q)
	if got := a.Stats().QueriesRelayed; got != 2 {
		t.Fatalf("(X,1) after the dedup lifetime: relayed %d times in all, want 2", got)
	}
}

// TestQueryTablesGiveMemoryBack: after a burst of relayed queries and the
// dedup lifetime with no traffic, the dedup set, the relay set and their
// queues are empty and hold no storage — their expiry tasks drained them —
// and the agent relays the next query as before.
func TestQueryTablesGiveMemoryBack(t *testing.T) {
	const ttl = queryRelayTTL
	a, fc := newShardAgent(t, Config{})
	for i := range 1000 {
		a.handlePayload(&Payload{Queries: []Query{{
			Type: "sip", Key: fmt.Sprintf("user%d@x", i), Origin: netem.NodeID(fmt.Sprintf("n%d", i)), ID: 1, Hops: 4,
		}}})
	}
	a.Outgoing(routing.Outgoing{Dst: netem.Broadcast, Budget: 1200})
	if a.seenLen() != 1000 || a.relayLen() != 1000 {
		t.Fatalf("burst left %d seen and %d relayed queries, want 1000 of each", a.seenLen(), a.relayLen())
	}
	released := func() bool {
		a.qmu.Lock()
		defer a.qmu.Unlock()
		return a.seenQ.m == nil && a.relayQ.m == nil &&
			reflect.DeepEqual(a.seenQ.q, clock.ExpiryQueue[qkey]{}) &&
			reflect.DeepEqual(a.relayQ.q, clock.ExpiryQueue[qkey]{})
	}
	fc.Sleep(4 * ttl)
	if !released() {
		t.Fatal("the query tables still hold storage after the dedup lifetime")
	}
	a.handlePayload(&Payload{Queries: []Query{{Type: "sip", Key: "late", Origin: "late", ID: 1, Hops: 4}}})
	if a.seenLen() != 1 || a.relayLen() != 1 || a.Stats().QueriesRelayed != 1001 {
		t.Fatalf("after the drain: %d seen, %d relayed, %d relayed in all; want 1, 1, 1001",
			a.seenLen(), a.relayLen(), a.Stats().QueriesRelayed)
	}
}

// TestQueryExpiryTaskAllocFree pins a run of each query table's expiry task —
// drop the entry that is due, move the task on to the next head's deadline —
// at zero allocations, alongside the relayed query that keeps both tables in
// steady state.
func TestQueryExpiryTaskAllocFree(t *testing.T) {
	const ttl = queryRelayTTL
	a, fc := newShardAgent(t, Config{})
	origin, err := a.host.Network().AddHost("10.0.0.7", netem.Position{X: 50})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 200
	items := make([]item, runs+2) // AllocsPerRun adds a warm-up run
	for i := range items {
		b := (&Payload{Queries: []Query{{Type: "gateway", Origin: origin.ID(), ID: uint32(i + 1), Hops: 8}}}).Marshal()
		if dec := newDecoder(b); !dec.next(&items[i]) {
			t.Fatal("query does not decode")
		}
	}
	now, i := fc.Now(), 0
	step := func() {
		a.handleQuery(&items[i], now)
		a.onRelayExpiry(now)
		a.onSeenExpiry(now)
		now, i = now.Add(ttl/2), i+1
	}
	step()
	if allocs := testing.AllocsPerRun(runs, step); allocs != 0 {
		t.Errorf("relayed query plus one run of each expiry task: %v allocations, want 0", allocs)
	}
	// Relay entries live two steps and dedup keys eight.
	if a.relayLen() != 2 || a.seenLen() != 8 {
		t.Fatalf("tables hold %d relayed and %d seen queries, want 2 and 8", a.relayLen(), a.seenLen())
	}
}
