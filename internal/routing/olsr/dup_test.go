package olsr

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/routing"
	"siphoc/internal/wire"
)

// soloHost is one unstarted host on a one-shard fake clock: a fuzz input or
// a test gets fresh protocol instances on it, which cost no goroutine and no
// timer.
func soloHost(tb testing.TB) (*clock.Fake, *netem.Host) {
	tb.Helper()
	fake := clock.NewFake(time.Unix(2_000_000, 0))
	net := netem.NewNetwork(netem.Config{Clock: fake, Shards: 1})
	tb.Cleanup(net.Close)
	h, err := net.AddHost("self", netem.Position{})
	if err != nil {
		tb.Fatal(err)
	}
	return fake, h
}

// edgesOf returns the selectors p holds as orig's live out-edges, sorted.
func edgesOf(p *Protocol, orig netem.NodeID) []netem.NodeID {
	p.mu.Lock()
	defer p.mu.Unlock()
	oi, ok := p.known(orig)
	if !ok {
		return nil
	}
	nowNs := p.clk.Now().UnixNano()
	var out []netem.NodeID
	for _, e := range p.topo[oi] {
		if nowNs <= e.expiresNs {
			out = append(out, p.net.Handles().ID(e.dest))
		}
	}
	slices.Sort(out)
	return out
}

// TestLateSelectorCopyForwardedOnce pins RFC 3626's duplicate rule for the
// retransmission: a TC's first copy, heard from a neighbour that did not pick
// this node as MPR, is processed and not relayed; a later copy from an MPR
// selector is relayed, once; a third copy is dropped.
func TestLateSelectorCopyForwardedOnce(t *testing.T) {
	_, h := soloHost(t)
	p := New(h, Config{HelloInterval: 20 * time.Minute, TopologyHold: time.Hour}.withDefaults())
	p.onHello("sel", &Hello{Neighbors: []HelloNeighbor{{Addr: "self", Link: LinkSym, MPR: true}}})
	p.onHello("other", &Hello{Neighbors: []HelloNeighbor{{Addr: "self", Link: LinkSym}}})
	tc := &TC{Orig: "orig", Seq: 9, ANSN: 1, TTL: 5, Selectors: []netem.NodeID{"x"}}

	p.onTC("other", tc)
	if fwd := p.Stats().TCFwd; fwd != 0 {
		t.Fatalf("a copy from a non-selector was relayed %d times", fwd)
	}
	if got := edgesOf(p, "orig"); !slices.Equal(got, []netem.NodeID{"x"}) {
		t.Fatalf("first copy installed %v, want [x]", got)
	}
	p.onTC("sel", tc)
	if fwd := p.Stats().TCFwd; fwd != 1 {
		t.Fatalf("the selector's late copy was relayed %d times, want 1", fwd)
	}
	p.onTC("sel", tc)
	p.onTC("other", tc)
	if fwd := p.Stats().TCFwd; fwd != 1 {
		t.Fatalf("later copies relayed again: %d relays, want 1", fwd)
	}
}

// TestDuplicateForgottenAfterHold pins the duplicate set's hold: a TC's
// (origin, seq) is a duplicate for 2×TCInterval from first sight, boundary
// included, and a copy arriving after that is processed as new. The copies
// here carry a new ANSN and selector, so processing shows in the edges. A TC
// from another origin passes at each step, as in any live network.
func TestDuplicateForgottenAfterHold(t *testing.T) {
	fake, h := soloHost(t)
	cfg := Config{HelloInterval: 20 * time.Minute, TCInterval: 100 * time.Millisecond, TopologyHold: time.Hour}.withDefaults()
	p := New(h, cfg)
	other := uint16(0)
	passing := func() {
		other++
		p.onTC("n1", &TC{Orig: "passer", Seq: other, ANSN: other, TTL: 1})
	}
	p.onTC("n1", &TC{Orig: "orig", Seq: 1, ANSN: 1, TTL: 1, Selectors: []netem.NodeID{"x"}})
	late := &TC{Orig: "orig", Seq: 1, ANSN: 2, TTL: 1, Selectors: []netem.NodeID{"y"}}

	fake.Sleep(2 * cfg.TCInterval)
	passing()
	p.onTC("n1", late)
	if got := edgesOf(p, "orig"); !slices.Equal(got, []netem.NodeID{"x"}) {
		t.Fatalf("a copy at exactly 2×TCInterval was processed: edges %v, want [x]", got)
	}
	fake.Sleep(time.Millisecond)
	passing()
	p.onTC("n1", late)
	if got := edgesOf(p, "orig"); !slices.Equal(got, []netem.NodeID{"y"}) {
		t.Fatalf("a copy after 2×TCInterval was dropped as a duplicate: edges %v, want [y]", got)
	}
}

// TestRestartedOriginHeardAgain takes the middle of a three-node chain down
// and brings it back under the same ID. The new instance numbers its TCs from
// 1 again; the network gives the ID back its handle, and the far end installs
// the restarted node's TC edges again and routes through it.
func TestRestartedOriginHeardAgain(t *testing.T) {
	fake := clock.NewFake(time.Unix(3_000_000, 0))
	net := netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond, Clock: fake, Shards: 1})
	defer net.Close()
	cfg := SimConfig()
	start := func(id netem.NodeID, x float64) (*netem.Host, *Protocol) {
		h, err := net.AddHost(id, netem.Position{X: x})
		if err != nil {
			t.Fatal(err)
		}
		p := New(h, cfg)
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Stop)
		return h, p
	}
	_, a := start("a", 0)
	hb, b := start("b", 90)
	start("c", 180)
	fake.Sleep(time.Second)
	if got := edgesOf(a, "b"); !slices.Equal(got, []netem.NodeID{"a", "c"}) {
		t.Fatalf("before the restart a holds b's edges %v, want [a c]", got)
	}
	handle := hb.Handle()

	b.Stop()
	net.RemoveHost("b")
	fake.Sleep(cfg.TopologyHold + cfg.neighborHold() + time.Second)
	if got := edgesOf(a, "b"); len(got) != 0 {
		t.Fatalf("a still holds the dead node's edges %v", got)
	}
	if _, ok := a.NextHop("c"); ok {
		t.Fatal("a still routes to c with b gone")
	}

	// The first TC the restarted node sends, read off the air.
	var firstSeq atomic.Int32
	firstSeq.Store(-1)
	net.SetTap(func(f netem.Frame) {
		var env routing.Envelope
		if f.Src != "b" || f.Kind != netem.KindRouting || routing.ParseEnvelopeInto(&env, f.Payload) != nil || env.Kind != KindTC {
			return
		}
		r := wire.NewReader(env.Body)
		if string(r.StringBytes()) == "b" {
			firstSeq.CompareAndSwap(-1, int32(r.U16()))
		}
	})
	hb2, _ := start("b", 90)
	if hb2.Handle() != handle {
		t.Fatalf("the restarted node got handle %d, had %d", hb2.Handle(), handle)
	}
	fake.Sleep(time.Second)
	if seq := firstSeq.Load(); seq != 1 {
		t.Fatalf("the restarted node's first TC had seq %d, want 1", seq)
	}
	if got := edgesOf(a, "b"); !slices.Equal(got, []netem.NodeID{"a", "c"}) {
		t.Fatalf("after the restart a holds b's edges %v, want [a c]", got)
	}
	if via, ok := a.NextHop("c"); !ok || via != "b" {
		t.Fatalf("a routes to c via %q (%v), want b", via, ok)
	}
}

// TestHandleTableConcurrentIntern interns new IDs and probes known ones from
// several goroutines while a two-shard OLSR grid exchanges HELLOs and TCs,
// whose receive paths read the same table. Every handle stays what it was
// given, the ranks stay lexical, and the grid still converges.
func TestHandleTableConcurrentIntern(t *testing.T) {
	fake := clock.NewFake(time.Unix(5_000_000, 0))
	net := netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond, Clock: fake, Shards: 2})
	defer net.Close()
	hosts, err := netem.Grid(net, 4, 4, 80, "g")
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]*Protocol, len(hosts))
	for i, h := range hosts {
		protos[i] = New(h, SimConfig())
		if err := protos[i].Start(); err != nil {
			t.Fatal(err)
		}
		defer protos[i].Stop()
	}

	const workers, perWorker = 4, 100
	var stop atomic.Bool
	var wg sync.WaitGroup
	given := make([][]uint32, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perWorker || !stop.Load(); k++ {
				if k < perWorker {
					given[w] = append(given[w], net.Intern(netem.NodeID(fmt.Sprintf("x%d.%d", w, k))))
				}
				ids := net.Handles()
				host := hosts[k%len(hosts)]
				if h, ok := ids.Lookup(host.ID()); !ok || h != host.Handle() || ids.ID(h) != host.ID() {
					t.Errorf("%s probed as handle %d (%v), was given %d", host.ID(), h, ok, host.Handle())
					return
				}
			}
		}()
	}
	fake.Sleep(2 * time.Second)
	stop.Store(true)
	wg.Wait()

	ids := net.Handles()
	if want := len(hosts) + workers*perWorker; ids.Len() != want {
		t.Fatalf("%d handles, want %d", ids.Len(), want)
	}
	for w, hs := range given {
		for k, h := range hs {
			if id := netem.NodeID(fmt.Sprintf("x%d.%d", w, k)); ids.ID(h) != id || net.Intern(id) != h {
				t.Fatalf("handle %d names %q, was given to %q", h, ids.ID(h), id)
			}
		}
	}
	byRank := make([]netem.NodeID, ids.Len())
	for h := range uint32(ids.Len()) {
		byRank[ids.Rank(h)] = ids.ID(h)
	}
	if !slices.IsSorted(byRank) {
		t.Fatalf("ranks are not lexical: %v", byRank)
	}
	if via, ok := protos[0].NextHop(hosts[len(hosts)-1].ID()); !ok {
		t.Fatalf("the grid did not converge: corner-to-corner route %q, %v", via, ok)
	}
}
