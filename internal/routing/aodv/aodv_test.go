package aodv

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"siphoc/internal/netem"
	"siphoc/internal/routing"
	"siphoc/internal/testutil"
)

func TestRREQRoundTrip(t *testing.T) {
	in := &RREQ{
		ID: 42, HopCount: 3, TTL: 30,
		Orig: "10.0.0.1", OrigSeq: 7,
		Dst: "10.0.0.9", DstSeq: 5, UnknownSeq: true,
	}
	out, err := ParseRREQ(in.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("mismatch: %+v vs %+v", in, out)
	}
}

func TestMessageCodecsQuick(t *testing.T) {
	rreq := func(id uint32, hc, ttl uint8, orig, dst string, os, ds uint32, unk bool) bool {
		if len(orig) > 1000 || len(dst) > 1000 {
			return true
		}
		in := &RREQ{ID: id, HopCount: hc, TTL: ttl, Orig: netem.NodeID(orig), OrigSeq: os,
			Dst: netem.NodeID(dst), DstSeq: ds, UnknownSeq: unk}
		body := in.AppendTo(nil)
		out, err := ParseRREQ(body)
		return err == nil && reflect.DeepEqual(in, out)
	}
	if err := quick.Check(rreq, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatalf("RREQ: %v", err)
	}
	rrep := func(hc uint8, orig, dst string, seq, life uint32) bool {
		if len(orig) > 1000 || len(dst) > 1000 {
			return true
		}
		in := &RREP{HopCount: hc, Orig: netem.NodeID(orig), Dst: netem.NodeID(dst), DstSeq: seq, LifetimeMs: life}
		body := in.AppendTo(nil)
		out, err := ParseRREP(body)
		return err == nil && reflect.DeepEqual(in, out)
	}
	if err := quick.Check(rrep, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatalf("RREP: %v", err)
	}
	hello := func(seq uint32) bool {
		in := &Hello{Seq: seq}
		body := in.AppendTo(nil)
		out, err := ParseHello(body)
		return err == nil && out.Seq == seq
	}
	if err := quick.Check(hello, nil); err != nil {
		t.Fatalf("HELLO: %v", err)
	}
}

func TestRERRCodec(t *testing.T) {
	in := &RERR{Unreachable: []Unreachable{{Dst: "a", Seq: 1}, {Dst: "b", Seq: 9}}}
	body := in.AppendTo(nil)
	out, err := ParseRERR(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("mismatch: %+v vs %+v", in, out)
	}
	if _, err := ParseRERR([]byte{5}); err == nil {
		t.Fatal("truncated RERR accepted")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {1}, {1, 2, 3}} {
		if _, err := ParseRREQ(b); err == nil {
			t.Fatalf("ParseRREQ(%v) accepted", b)
		}
		if _, err := ParseRREP(b); err == nil {
			t.Fatalf("ParseRREP(%v) accepted", b)
		}
	}
}

// startChain builds an n-node chain running AODV and returns the network,
// hosts and protocols. Cleanup is registered on t.
func startChain(t *testing.T, n int) (*netem.Network, []*netem.Host, []*Protocol) {
	t.Helper()
	net := netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond})
	t.Cleanup(net.Close)
	hosts, err := netem.Chain(net, n, 90, "10.0.0")
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]*Protocol, n)
	for i, h := range hosts {
		protos[i] = New(h, SimConfig())
		if err := protos[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, p := range protos {
			p.Stop()
		}
	})
	return net, hosts, protos
}

func TestRouteDiscoveryOverChain(t *testing.T) {
	_, hosts, protos := startChain(t, 5)
	src, dst := protos[0], hosts[4].ID()

	done := make(chan bool, 1)
	src.RequestRoute(dst, func(ok bool) { done <- ok })
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("route discovery failed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("discovery timed out")
	}
	nh, ok := src.NextHop(dst)
	if !ok || nh != hosts[1].ID() {
		t.Fatalf("NextHop = %v,%v; want %v", nh, ok, hosts[1].ID())
	}
	// Every relay must now know the forward route.
	for i := 1; i < 4; i++ {
		if nh, ok := protos[i].NextHop(dst); !ok || nh != hosts[i+1].ID() {
			t.Fatalf("relay %d NextHop = %v,%v", i, nh, ok)
		}
	}
	if protos[0].Stats().Discovered != 1 {
		t.Fatalf("Discovered = %d", protos[0].Stats().Discovered)
	}
}

func TestEndToEndDatagramViaAODV(t *testing.T) {
	_, hosts, _ := startChain(t, 4)
	cs, err := hosts[0].Listen(100)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := hosts[3].Listen(200)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	defer cd.Close()
	arrived := make(chan *netem.Datagram, 1)
	cd.Handle(func(dg *netem.Datagram) { arrived <- dg.Clone() })
	if err := cs.WriteTo([]byte("voice"), hosts[3].ID(), 200); err != nil {
		t.Fatal(err)
	}
	select {
	case dg := <-arrived:
		if string(dg.Data) != "voice" {
			t.Fatalf("payload = %q", dg.Data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("datagram never arrived")
	}
}

func TestDiscoveryFailsForUnreachable(t *testing.T) {
	_, _, protos := startChain(t, 2)
	done := make(chan bool, 1)
	protos[0].RequestRoute("10.9.9.9", func(ok bool) { done <- ok })
	select {
	case ok := <-done:
		if ok {
			t.Fatal("discovered a route to a nonexistent node")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("discovery never concluded")
	}
	if protos[0].Stats().Failed != 1 {
		t.Fatalf("Failed = %d", protos[0].Stats().Failed)
	}
}

func TestConcurrentDiscoveriesCoalesce(t *testing.T) {
	_, hosts, protos := startChain(t, 3)
	var wg sync.WaitGroup
	results := make(chan bool, 8)
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch := make(chan bool, 1)
			protos[0].RequestRoute(hosts[2].ID(), func(ok bool) { ch <- ok })
			results <- <-ch
		}()
	}
	wg.Wait()
	close(results)
	for ok := range results {
		if !ok {
			t.Fatal("coalesced discovery failed")
		}
	}
	// All eight callers share at most (1+retries) RREQ transmissions.
	if s := protos[0].Stats(); s.RREQSent > int64(1+rreqRetries) {
		t.Fatalf("RREQSent = %d; coalescing broken", s.RREQSent)
	}
}

func TestLinkBreakTriggersRERR(t *testing.T) {
	net, hosts, protos := startChain(t, 4)
	done := make(chan bool, 1)
	protos[0].RequestRoute(hosts[3].ID(), func(ok bool) { done <- ok })
	if ok := <-done; !ok {
		t.Fatal("initial discovery failed")
	}
	// Kill the last node; its upstream neighbour must detect the loss and
	// the stale route must disappear at the source.
	net.RemoveHost(hosts[3].ID())
	deadline := time.After(10 * time.Second)
	for {
		if _, ok := protos[0].NextHop(hosts[3].ID()); !ok {
			return
		}
		select {
		case <-deadline:
			t.Fatal("stale route survived link break")
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func TestRouteRepairAfterPartitionHeals(t *testing.T) {
	net, hosts, protos := startChain(t, 3)
	mid := hosts[1].ID()
	// Partition: drop the middle links.
	net.SetLink(hosts[0].ID(), mid, false)
	ch := make(chan bool, 1)
	protos[0].RequestRoute(hosts[2].ID(), func(ok bool) { ch <- ok })
	if ok := <-ch; ok {
		t.Fatal("discovery succeeded across a partition")
	}
	// Heal and retry.
	net.ClearLink(hosts[0].ID(), mid)
	ch2 := make(chan bool, 1)
	protos[0].RequestRoute(hosts[2].ID(), func(ok bool) { ch2 <- ok })
	select {
	case ok := <-ch2:
		if !ok {
			t.Fatal("discovery failed after partition healed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("discovery timed out after heal")
	}
}

type capturingHandler struct {
	mu       sync.Mutex
	ext      []byte
	incoming []routing.Incoming
	budgets  []int
}

func (c *capturingHandler) AppendOutgoing(b []byte, msg routing.Outgoing) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budgets = append(c.budgets, msg.Budget)
	return append(b, c.ext...)
}

// Incoming keeps the message, so it copies the extension it was lent.
func (c *capturingHandler) Incoming(msg routing.Incoming) {
	c.mu.Lock()
	defer c.mu.Unlock()
	msg.Ext = bytes.Clone(msg.Ext)
	c.incoming = append(c.incoming, msg)
}

func TestPiggybackExtensionDelivered(t *testing.T) {
	net := netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond})
	defer net.Close()
	hosts, err := netem.Chain(net, 2, 50, "n")
	if err != nil {
		t.Fatal(err)
	}
	sender := New(hosts[0], SimConfig())
	receiver := New(hosts[1], SimConfig())
	hs := &capturingHandler{ext: []byte("service:sip://alice")}
	hr := &capturingHandler{}
	sender.SetPiggyback(hs)
	receiver.SetPiggyback(hr)
	if err := sender.Start(); err != nil {
		t.Fatal(err)
	}
	if err := receiver.Start(); err != nil {
		t.Fatal(err)
	}
	defer sender.Stop()
	defer receiver.Stop()

	done := make(chan bool, 1)
	sender.RequestRoute(hosts[1].ID(), func(ok bool) { done <- ok })
	if ok := <-done; !ok {
		t.Fatal("discovery failed")
	}
	deadline := time.After(5 * time.Second)
	for {
		hr.mu.Lock()
		n := len(hr.incoming)
		var first routing.Incoming
		if n > 0 {
			first = hr.incoming[0]
		}
		hr.mu.Unlock()
		if n > 0 {
			if string(first.Ext) != "service:sip://alice" {
				t.Fatalf("ext = %q", first.Ext)
			}
			if first.Proto != routing.ProtoAODV {
				t.Fatalf("proto = %d", first.Proto)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatal("extension never delivered")
		case <-time.After(5 * time.Millisecond):
		}
	}
	// Budgets offered must stay within the MTU budget rule.
	hs.mu.Lock()
	defer hs.mu.Unlock()
	for _, b := range hs.budgets {
		if b <= 0 || b > routing.ExtBudget(0) {
			t.Fatalf("budget out of range: %d", b)
		}
	}
}

func TestStopIsIdempotentAndFailsPending(t *testing.T) {
	net := netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond})
	defer net.Close()
	h, err := net.AddHost("solo", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	p := New(h, SimConfig())
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan bool, 1)
	p.RequestRoute("ghost", func(ok bool) { done <- ok })
	p.Stop()
	p.Stop()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("pending discovery reported success after Stop")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending discovery never completed after Stop")
	}
	if err := p.Start(); err == nil {
		// Restart after stop is not supported; a fresh instance is.
		t.Skip("restart unexpectedly supported")
	}
}

func TestFreshnessRulePrefersHigherSeq(t *testing.T) {
	tbl := routing.NewTable()
	now := time.Now()
	tbl.UpsertIfFresher(routing.Entry{Dst: "d", NextHop: "a", Hops: 2, SeqNo: 5, Expires: now.Add(time.Hour)})
	// Older seqno must not replace.
	if tbl.UpsertIfFresher(routing.Entry{Dst: "d", NextHop: "b", Hops: 1, SeqNo: 4, Expires: now.Add(time.Hour)}) {
		t.Fatal("stale route replaced fresher one")
	}
	// Same seqno, shorter path must replace.
	if !tbl.UpsertIfFresher(routing.Entry{Dst: "d", NextHop: "c", Hops: 1, SeqNo: 5, Expires: now.Add(time.Hour)}) {
		t.Fatal("shorter route at same freshness rejected")
	}
	// Higher seqno always replaces, even if longer.
	if !tbl.UpsertIfFresher(routing.Entry{Dst: "d", NextHop: "e", Hops: 9, SeqNo: 6, Expires: now.Add(time.Hour)}) {
		t.Fatal("fresher route rejected")
	}
	e, ok := tbl.Lookup("d", now)
	if !ok || e.NextHop != "e" {
		t.Fatalf("final route = %+v, %v", e, ok)
	}
}

// appendingHandler piggybacks a fixed extension onto every control frame.
type appendingHandler struct{ ext string }

func (h appendingHandler) AppendOutgoing(b []byte, msg routing.Outgoing) []byte {
	return append(b, h.ext...)
}
func (appendingHandler) Incoming(routing.Incoming) {}

// TestHelloAllocBudget pins a HELLO beacon at no allocation: header, body and
// the piggybacked extension are written once, into a wire buffer off the free
// list, which goes back when the frame's life ends — at once here, where nobody
// is in range, so that a delivery's cost is not counted with it.
func TestHelloAllocBudget(t *testing.T) {
	if testutil.Race {
		t.Skip("allocation counts are not meaningful under -race")
	}
	net := netem.NewNetwork(netem.Config{})
	defer net.Close()
	h, err := net.AddHost("self", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	var seen []byte // the last frame on the medium, copied: the tap only borrows it
	net.SetTap(func(f netem.Frame) { seen = append(seen[:0], f.Payload...) })
	p := New(h, SimConfig())
	p.SetPiggyback(appendingHandler{"digest-size"})
	p.helloTick() // sizes the framer, and the tap's copy
	if allocs := testing.AllocsPerRun(200, p.helloTick); allocs != 0 {
		t.Fatalf("a HELLO allocates %.1f times, want 0", allocs)
	}
	var env routing.Envelope
	if routing.ParseEnvelopeInto(&env, seen) != nil || env.Kind != KindHello || string(env.Ext) != "digest-size" {
		t.Fatalf("last frame on the medium is not a HELLO with its extension: %x", seen)
	}
}

// switchedHandler piggybacks whatever extension the test has set.
type switchedHandler struct {
	mu  sync.Mutex
	ext []byte
}

func (h *switchedHandler) set(ext []byte) {
	h.mu.Lock()
	h.ext = ext
	h.mu.Unlock()
}

func (h *switchedHandler) AppendOutgoing(b []byte, _ routing.Outgoing) []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append(b, h.ext...)
}
func (*switchedHandler) Incoming(routing.Incoming) {}

// keeper records, for every slice it is lent, the slice itself — which is the
// mistake — and a copy, which is the rule (see netem.Frame).
type keeper struct {
	mu      sync.Mutex
	aliased [][]byte
	copied  [][]byte
	heard   chan struct{}
}

func newKeeper() *keeper { return &keeper{heard: make(chan struct{}, 16)} }

func (k *keeper) keep(b []byte) {
	k.mu.Lock()
	k.aliased = append(k.aliased, b)
	k.copied = append(k.copied, bytes.Clone(b))
	k.mu.Unlock()
	k.heard <- struct{}{}
}

func (k *keeper) AppendOutgoing(b []byte, _ routing.Outgoing) []byte { return b }
func (k *keeper) Incoming(msg routing.Incoming)                      { k.keep(msg.Ext) }

// check compares what the keeper was lent, in order, with want: the copies
// read their bytes, and the alias of the last but one reads poison by the time
// the last has been handled, on the same worker. (The last but one, because
// the frame after it is of the other size class and cannot have been built in
// its buffer.)
func (k *keeper) check(t *testing.T, who string, want ...[]byte) {
	t.Helper()
	for range want {
		select {
		case <-k.heard:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s missed a frame", who)
		}
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	for i, w := range want {
		if !bytes.Equal(k.copied[i], w) {
			t.Errorf("%s: copy %d reads %q, want %q", who, i, k.copied[i], w)
		}
	}
	kept := k.aliased[len(want)-2]
	if poison := bytes.Repeat([]byte{0xDB}, len(kept)); !bytes.Equal(kept, poison) {
		t.Errorf("%s: kept alias reads %q, want poison", who, kept)
	}
	k.aliased, k.copied = nil, nil
}

// TestControlFrameIsBorrowed: a control frame is lent to its receivers. A
// KindRouting handler that keeps Payload, or a piggyback handler that keeps
// Ext, reads poison once the frame's fan-out is over and the buffer is back on
// the free list; one that copies reads its bytes. On a broadcast to three
// neighbours and on a unicast RREP, each time three frames: one carrying a
// burst of adverts, which goes out in the MTU buffer it was built in and must
// arrive intact; one carrying a digest, copied down into the small class; and
// a burst again.
func TestControlFrameIsBorrowed(t *testing.T) {
	// No transmission time, so that frames arrive in the order they were sent
	// whatever their size.
	net := netem.NewNetwork(netem.Config{BaseDelay: 10 * time.Microsecond, BytesPerSecond: 1e15})
	defer net.Close()
	self, err := net.AddHost("self", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	// Two neighbours run the protocol's receive path with a piggyback handler
	// that keeps; the third is a bare KindRouting handler that keeps.
	exts := []*keeper{newKeeper(), newKeeper()}
	raw := newKeeper()
	for i, pos := range []netem.Position{{X: 50}, {X: -50}, {Y: 50}} {
		h, err := net.AddHost(netem.NodeName("n", i), pos)
		if err != nil {
			t.Fatal(err)
		}
		handle := func(f netem.Frame) { raw.keep(f.Payload) }
		if i < len(exts) {
			p := New(h, SimConfig())
			p.SetPiggyback(exts[i])
			handle = p.onFrame
		}
		if err := h.HandleFrames(netem.KindRouting, handle); err != nil {
			t.Fatal(err)
		}
	}
	digest := []byte("digest-size")
	burst := bytes.Repeat([]byte("advert "), 60) // over the small class
	pb := &switchedHandler{}
	p := New(self, SimConfig())
	p.SetPiggyback(pb)
	frame := func(kind uint8, body, ext []byte) []byte {
		b := append([]byte{routing.ProtoAODV, kind, 0, byte(len(body))}, body...)
		return append(append(b, byte(len(ext)>>8), byte(len(ext))), ext...)
	}

	hello := (&Hello{}).AppendTo(nil)
	for _, ext := range [][]byte{burst, digest, burst} {
		pb.set(ext)
		p.helloTick()
	}
	for i, k := range exts {
		k.check(t, fmt.Sprintf("broadcast, Incoming at n.%d", i), burst, digest, burst)
	}
	raw.check(t, "broadcast, KindRouting handler",
		frame(KindHello, hello, burst), frame(KindHello, hello, digest), frame(KindHello, hello, burst))

	rep := &RREP{Orig: "n.0", Dst: "self", DstSeq: 1, LifetimeMs: 1000}
	for _, ext := range [][]byte{burst, digest, burst} {
		pb.set(ext)
		p.send("n.0", rep.AppendTo(p.begin(KindRREP)))
	}
	exts[0].check(t, "unicast RREP, Incoming at n.0", burst, digest, burst)
}
