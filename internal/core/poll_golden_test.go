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
	"siphoc/internal/routing/olsr"
	"siphoc/internal/slp"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// pollGoldenRun brings up an isolated 3×3 OLSR grid whose nodes all run a
// Connection Provider — the paper's main setting: every node polls for a
// gateway nobody offers — on a fake clock driving a one-shard network, and
// records every frame on the air for span of virtual time. The clock stops at
// every deadline, so every task runs exactly at its due time and the run is
// one total order. Each node's line is
// its frame count and an order-free sum of a hash of every frame it sent: the
// instant, the destination, the kind and the payload bytes.
func pollGoldenRun(t *testing.T, span time.Duration) map[netem.NodeID]string {
	t.Helper()
	fake := clock.NewFake(time.Unix(2_000_000, 0))
	start := fake.Now()
	net := netem.NewNetwork(netem.Config{Range: 100, BaseDelay: time.Millisecond, Clock: fake, Shards: 1, Seed: 7})
	defer net.Close()

	type tally struct {
		frames int
		sum    uint64
	}
	var mu sync.Mutex
	seen := make(map[netem.NodeID]*tally)
	net.SetTap(func(f netem.Frame) {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%s|%d|", fake.Now().Sub(start), f.Dst, f.Kind)
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
	mu.Lock()
	defer mu.Unlock()
	out := make(map[netem.NodeID]string, len(seen))
	for id, tl := range seen {
		out[id] = fmt.Sprintf("frames=%d sum=%016x", tl.frames, tl.sum)
	}
	return out
}

// TestIdlePollGolden pins the bytes and instants of an idle MANET's
// connectivity plane: the HELLOs and TCs of a 3×3 OLSR grid carrying the SLP
// digest and the wildcard gateway queries every node's Connection Provider
// issues, relays and lets expire, round after round, for three virtual seconds
// (testdata/poll3x3_olsr.golden). The golden was recorded before the poll was
// made allocation-free; a change to how the poll is computed must not move a
// byte or an instant. A deliberate wire change re-records it with -update.
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
