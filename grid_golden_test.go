// Execution-core validation: a seeded grid must emit the HELLO and TC counts
// and converge to the route tables recorded from the goroutine-per-timer core
// this one replaced, while the process goroutine count stays O(shards), not
// O(nodes).
package siphoc_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"siphoc"
	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/routing/olsr"
	"siphoc/internal/testutil"
)

// goldenRun runs a 5×5 OLSR grid on a fake clock for 1.5 s of virtual time
// and returns a per-node fingerprint: timer-fire counts plus the converged
// route table.
func goldenRun(t *testing.T) map[netem.NodeID]string {
	t.Helper()
	fake := clock.NewFake(time.Unix(1_000_000, 0))
	olsrCfg := olsr.Config{
		HelloInterval: 50 * time.Millisecond,
		TCInterval:    125 * time.Millisecond,
		MaxTTL:        16,
		RouteWait:     time.Minute,
	}
	sc, err := siphoc.NewScenarioWith(
		siphoc.WithRadio(netem.Config{Range: 100, BaseDelay: time.Millisecond, Clock: fake}),
		siphoc.WithOLSR(&olsrCfg),
		siphoc.WithoutObservability(),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	nodes, err := sc.Grid(5, 5, 80, siphoc.WithoutConnectionProvider())
	if err != nil {
		t.Fatal(err)
	}

	fake.Sleep(1500 * time.Millisecond)

	out := make(map[netem.NodeID]string, len(nodes))
	for _, n := range nodes {
		p := n.Routing().(*olsr.Protocol)
		s := p.Stats()
		lines := make([]string, 0, 24)
		for _, e := range p.Routes() {
			lines = append(lines, fmt.Sprintf("%s via %s hops=%d", e.Dst, e.NextHop, e.Hops))
		}
		sort.Strings(lines)
		out[n.ID()] = fmt.Sprintf("hello=%d tc=%d routes[%s]",
			s.HelloSent, s.TCSent, strings.Join(lines, ";"))
	}
	return out
}

// TestGridGolden pins the protocol behaviour of the execution core against
// testdata/grid5x5_olsr.golden: one line per node — HELLO count, TC count,
// sorted route table — recorded from the goroutine-per-timer core at the
// commit that deleted it (both cores agreed there, which the test this one
// replaces checked by running them side by side). Same seeded fake clock,
// same grid, same config: every node must match. A deliberate protocol
// change re-records the file; an executor change must not need to.
func TestGridGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/grid5x5_olsr.golden")
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
	got := goldenRun(t)
	for id, w := range want {
		if g := got[id]; g != w {
			t.Errorf("node %s diverges:\n  golden: %s\n  got:    %s", id, w, g)
		}
	}
	if len(got) != len(want) {
		t.Errorf("node count differs: golden %d, got %d", len(want), len(got))
	}
}

// eventLoopGoroutines brings up a side×side grid of full nodes beside a
// gateway and an Internet, and returns how many goroutines it runs on in steady
// state, tearing the scenario down (and verifying it leaks nothing) before
// returning.
func eventLoopGoroutines(t *testing.T, side int) int {
	t.Helper()
	baseline := testutil.StableGoroutines() // earlier tests' goroutines have exited
	sc, err := siphoc.NewScenarioWith(
		siphoc.WithOLSR(nil),
		siphoc.WithInternet(0),
		siphoc.WithoutObservability(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.AddNode("10.0.1.1", siphoc.Position{X: -80}, siphoc.WithGateway()); err != nil {
		sc.Close()
		t.Fatal(err)
	}
	nodes, err := sc.Grid(side, side, 80)
	if err != nil {
		sc.Close()
		t.Fatal(err)
	}
	// Steady state includes a tunnel being pinged: the corner node is the
	// gateway's neighbour.
	if err := sc.WaitAttached(nodes[0], 10*time.Second); err != nil {
		sc.Close()
		t.Fatal(err)
	}
	// Let transient bring-up goroutines (parallel node construction) exit.
	n := testutil.StableGoroutines()
	sc.Close()
	if err := siphoc.SettleGoroutines(baseline, 2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	return n - baseline
}

// TestEventLoopGoroutinesIndependentOfN pins the execution core's resource
// claim: a scenario of full nodes — routing, SLP, Connection Provider, proxy —
// with a gateway and an Internet runs on the shard workers of its two
// networks' schedulers (GOMAXPROCS each by default) and nothing else, at 16
// nodes and at 64. A goroutine per timer costs about seven per node, a receive
// and a probe loop two per provider; a delivery loop beside the timer loop
// doubled the workers.
func TestEventLoopGoroutinesIndependentOfN(t *testing.T) {
	want := 2 * runtime.GOMAXPROCS(0)
	for _, side := range []int{4, 8} {
		if got := eventLoopGoroutines(t, side); got != want {
			t.Errorf("%d-node grid runs on %d goroutines, want the %d shard workers", side*side, got, want)
		}
	}
}

// TestEventLoopGoroutinesIndependentOfCalls extends the resource claim from
// nodes to calls: with 64 calls ringing and 64 established between two full
// nodes, the process runs on the network scheduler's shard workers and
// nothing else. Every SIP transaction user — the proxies' routing and
// re-resolution, a call's set-up, auto-answer — is a callback on a shard; a
// goroutine per outgoing call or per request handler would show here.
func TestEventLoopGoroutinesIndependentOfCalls(t *testing.T) {
	const calls = 64
	baseline := testutil.StableGoroutines()
	sc, err := siphoc.NewScenarioWith(siphoc.WithoutObservability())
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	nodes, err := sc.Chain(2, 80)
	if err != nil {
		t.Fatal(err)
	}
	const domain = "voicehoc.ch"
	phone := func(n *siphoc.Node, user string, ring bool) *siphoc.Phone {
		ph, err := n.NewPhoneWith(siphoc.PhoneConfig{User: user, Domain: domain, NoAutoAnswer: ring})
		if err != nil {
			t.Fatal(err)
		}
		for range 5 {
			if err = ph.Register(); err == nil {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if err != nil {
			t.Fatal(err)
		}
		return ph
	}
	alice := phone(nodes[0], "alice", false)
	phone(nodes[1], "bob", true)
	phone(nodes[1], "carol", false)
	for _, aor := range []string{"bob@" + domain, "carol@" + domain} {
		if _, err := nodes[0].SLP().Lookup("sip", aor, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	var ringing, established []*siphoc.Call
	for range calls {
		for _, to := range []string{"bob", "carol"} {
			c, err := alice.Dial(to + "@" + domain)
			if err != nil {
				t.Fatal(err)
			}
			if to == "bob" {
				ringing = append(ringing, c)
			} else {
				established = append(established, c)
			}
		}
	}
	for _, c := range established {
		if err := c.WaitEstablished(20 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		n := 0
		for _, c := range ringing {
			if c.State() == siphoc.CallRinging {
				n++
			}
		}
		if n == calls {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d calls ringing", n, calls)
		}
	}
	if got, want := testutil.StableGoroutines()-baseline, runtime.GOMAXPROCS(0); got != want {
		t.Errorf("%d calls ringing and %d established run on %d goroutines, want the %d shard workers", calls, calls, got, want)
	}
}

// framesHash builds a one-shard 4×4 OLSR grid of full nodes on a fake clock,
// taps the medium for 1.5 s of virtual time and returns a hash of every frame
// sent — its instant, source and bytes — and how many there were.
func framesHash(t *testing.T) (uint64, int) {
	t.Helper()
	fake := clock.NewFake(time.Unix(1_000_000, 0))
	olsrCfg := olsr.Config{HelloInterval: 50 * time.Millisecond, TCInterval: 125 * time.Millisecond}
	sc, err := siphoc.NewScenarioWith(
		siphoc.WithRadio(netem.Config{Range: 100, BaseDelay: time.Millisecond, Clock: fake, Shards: 1}),
		siphoc.WithOLSR(&olsrCfg),
		siphoc.WithoutObservability(),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var mu sync.Mutex
	h, frames := fnv.New64a(), 0
	sc.Network().SetTap(func(f netem.Frame) {
		mu.Lock()
		defer mu.Unlock()
		frames++
		h.Write(binary.BigEndian.AppendUint64(nil, uint64(fake.Now().UnixNano())))
		h.Write([]byte(f.Src))
		h.Write(f.Payload)
	})
	if _, err := sc.Grid(4, 4, 80); err != nil {
		t.Fatal(err)
	}
	fake.Sleep(1500 * time.Millisecond)
	sc.Network().SetTap(nil)
	mu.Lock()
	defer mu.Unlock()
	return h.Sum64(), frames
}

// TestGridFramesReplay: two builds of the same grid put the same frames on
// the air at the same instants. Scenario.Grid gives the nodes their handles
// in spec order and brings them up one after another; the order of HELLO
// neighbours and TC selectors follows the handles, so a bring-up whose order
// varied run to run sent different bytes.
func TestGridFramesReplay(t *testing.T) {
	h1, n1 := framesHash(t)
	h2, n2 := framesHash(t)
	if n1 == 0 || h1 != h2 || n1 != n2 {
		t.Fatalf("two builds sent %d frames (hash %x) and %d frames (hash %x); want the same, and some", n1, h1, n2, h2)
	}
}
