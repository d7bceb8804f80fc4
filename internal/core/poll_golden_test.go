package core

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/routing"
	"siphoc/internal/routing/olsr"
	"siphoc/internal/slp"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// pollGoldenRun records every frame of runPollGrid's run. Each node's line is
// its frame count and an order-free sum of a hash of every frame it sent: the
// instant, the destination, the kind and the payload bytes.
func pollGoldenRun(t *testing.T, span time.Duration) map[netem.NodeID]string {
	t.Helper()
	type tally struct {
		frames int
		sum    uint64
	}
	var mu sync.Mutex
	seen := make(map[netem.NodeID]*tally)
	runPollGrid(t, span, func(f netem.Frame, at time.Duration) {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%s|%d|", at, f.Dst, f.Kind)
		h.Write(f.Payload)
		mu.Lock()
		defer mu.Unlock()
		tl := seen[f.Src]
		if tl == nil {
			tl = &tally{}
			seen[f.Src] = tl
		}
		tl.frames++
		tl.sum += h.Sum64()
	})
	mu.Lock()
	defer mu.Unlock()
	out := make(map[netem.NodeID]string, len(seen))
	for id, tl := range seen {
		out[id] = fmt.Sprintf("frames=%d sum=%016x", tl.frames, tl.sum)
	}
	return out
}

// runPollGrid brings up an isolated 3×3 OLSR grid whose nodes all run a
// Connection Provider — the paper's main setting: every node polls for a
// gateway nobody offers — on a fake clock driving a one-shard network, and
// hands tap every frame on the air for span of virtual time, with the time
// since the start. The clock stops at every deadline, so every task runs
// exactly at its due time and the run is one total order.
func runPollGrid(t *testing.T, span time.Duration, tap func(f netem.Frame, at time.Duration)) {
	t.Helper()
	fake := clock.NewFake(time.Unix(2_000_000, 0))
	start := fake.Now()
	net := netem.NewNetwork(netem.Config{Range: 100, BaseDelay: time.Millisecond, Clock: fake, Shards: 1, Seed: 7})
	defer net.Close()
	net.SetTap(func(f netem.Frame) { tap(f, fake.Now().Sub(start)) })

	var (
		protos    []*olsr.Protocol
		agents    []*slp.Agent
		providers []*ConnectionProvider
	)
	defer func() {
		for _, p := range providers {
			p.Stop()
		}
		for _, a := range agents {
			a.Stop()
		}
		for _, p := range protos {
			p.Stop()
		}
	}()
	// One node at a time, so that the tasks each start queues are queued in
	// the same order on every run; nothing is sent before the test sleeps.
	for i := range 9 {
		h, err := net.AddHost(netem.NodeName("10.0.0", i+1), netem.Position{X: float64(i%3) * 80, Y: float64(i/3) * 80})
		if err != nil {
			t.Fatal(err)
		}
		proto := olsr.New(h, olsr.SimConfig())
		agent := slp.NewAgent(h, slp.Config{})
		agent.AttachRouting(proto)
		if err := proto.Start(); err != nil {
			t.Fatal(err)
		}
		protos = append(protos, proto)
		if err := agent.Start(); err != nil {
			t.Fatal(err)
		}
		agents = append(agents, agent)
		// The scenario's defaults for a full node (see siphoc's node.go).
		cp := NewConnectionProvider(h, agent, ConnProviderConfig{
			ProbeInterval: 250 * time.Millisecond,
			LookupTimeout: 200 * time.Millisecond,
			AckTimeout:    time.Second,
		})
		if err := cp.Start(); err != nil {
			t.Fatal(err)
		}
		providers = append(providers, cp)
	}

	fake.Sleep(span)

	for _, a := range agents {
		if st := a.Stats(); st.Lookups < int64(span/(500*time.Millisecond)) || st.QueriesRelayed == 0 {
			t.Fatalf("agent stats %+v: the grid is not polling", st)
		}
	}
}

// TestIdlePollGolden pins the bytes and instants of an idle MANET's
// connectivity plane: the HELLOs and TCs of a 3×3 OLSR grid carrying the SLP
// digest and the wildcard gateway queries every node's Connection Provider
// issues and relays on two broadcasts each, round after round, for three
// virtual seconds (testdata/poll3x3_olsr.golden). A change to how the poll is
// computed must not move a byte or an instant. A deliberate change of what
// goes on the air re-records it with -update.
func TestIdlePollGolden(t *testing.T) {
	const path = "testdata/poll3x3_olsr.golden"
	got := pollGoldenRun(t, 3*time.Second)
	ids := make([]string, 0, len(got))
	for id := range got {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	if *updateGolden {
		var b strings.Builder
		for _, id := range ids {
			fmt.Fprintf(&b, "%s\t%s\n", id, got[netem.NodeID(id)])
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[netem.NodeID]string)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		id, fingerprint, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[netem.NodeID(id)] = fingerprint
	}
	for id, w := range want {
		if g := got[id]; g != w {
			t.Errorf("node %s diverges:\n  golden: %s\n  got:    %s", id, w, g)
		}
	}
	if len(got) != len(want) {
		t.Errorf("node count differs: golden %d, got %d", len(want), len(got))
	}
}

// TestRelayedQueryRidesTwoBroadcasts: in the idle poll's grid a relay carries
// each foreign query on at most two of its broadcasts (the debt a changed
// advert is owed, slp's sendsPerChange) and on no routing frame to one
// neighbour. Only the origin's own query rides while its lookup waits.
func TestRelayedQueryRidesTwoBroadcasts(t *testing.T) {
	type relayedCopy struct {
		relay, origin netem.NodeID
		id            uint32
	}
	var mu sync.Mutex
	broadcasts := make(map[relayedCopy]int)
	var unicasts []relayedCopy
	runPollGrid(t, 3*time.Second, func(f netem.Frame, _ time.Duration) {
		var env routing.Envelope
		if f.Kind != netem.KindRouting || routing.ParseEnvelopeInto(&env, f.Payload) != nil || env.Ext == nil {
			return
		}
		p, err := slp.ParsePayload(env.Ext)
		if err != nil {
			t.Errorf("frame from %s: %v", f.Src, err)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		for _, q := range p.Queries {
			if q.Origin == f.Src {
				continue
			}
			c := relayedCopy{f.Src, q.Origin, q.ID}
			if f.Dst != netem.Broadcast {
				unicasts = append(unicasts, c)
				continue
			}
			broadcasts[c]++
		}
	})
	mu.Lock()
	defer mu.Unlock()
	twice := 0
	for c, n := range broadcasts {
		if n > 2 {
			t.Errorf("relay %s sent %s's query %d on %d broadcasts, want at most 2", c.relay, c.origin, c.id, n)
		}
		if n == 2 {
			twice++
		}
	}
	if twice == 0 {
		t.Errorf("of %d relayed queries none went out twice", len(broadcasts))
	}
	if len(unicasts) > 0 {
		t.Errorf("relayed queries rode %d unicast routing frames, e.g. %+v", len(unicasts), unicasts[0])
	}
}
