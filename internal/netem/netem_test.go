package netem

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// staticRoutes is a trivial RouteProvider backed by a fixed next-hop map.
type staticRoutes map[NodeID]NodeID

func (s staticRoutes) NextHop(dst NodeID) (NodeID, bool) {
	nh, ok := s[dst]
	return nh, ok
}

func (s staticRoutes) RequestRoute(dst NodeID, done func(bool)) {
	_, ok := s[dst]
	done(ok)
}

func fastConfig() Config {
	return Config{BaseDelay: 50 * time.Microsecond, BytesPerSecond: -1}
}

// fastConfig's BytesPerSecond of -1 would divide; guard in test helper:
func newFastNetwork(t *testing.T) *Network {
	t.Helper()
	n := NewNetwork(Config{BaseDelay: 50 * time.Microsecond})
	t.Cleanup(n.Close)
	return n
}

// inbox makes c a port the test body reads: a handler feeding a channel
// roomy enough for any test here, with a copy of each datagram, which the
// handler only borrows. Install it before anything is sent.
func inbox(c *Conn) <-chan *Datagram {
	ch := make(chan *Datagram, 256)
	c.Handle(func(dg *Datagram) { ch <- dg.Clone() })
	return ch
}

// arrived reports (and consumes) a datagram already waiting in an inbox.
func arrived(in <-chan *Datagram) bool {
	select {
	case <-in:
		return true
	default:
		return false
	}
}

func waitRecv(t *testing.T, in <-chan *Datagram) *Datagram {
	t.Helper()
	select {
	case dg := <-in:
		return dg
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for datagram")
		return nil
	}
}

func TestDatagramRoundTrip(t *testing.T) {
	in := &Datagram{
		SrcNode: "10.0.0.1", DstNode: "10.0.0.2",
		SrcPort: 5060, DstPort: 427, TTL: 17,
		Data: []byte("REGISTER sip:alice@voicehoc.ch SIP/2.0"),
	}
	b, err := AppendDatagram(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	var out Datagram
	if err := UnmarshalDatagramInto(&out, b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, &out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestDatagramRoundTripProperty(t *testing.T) {
	f := func(src, dst string, sp, dp uint16, ttl uint8, data []byte) bool {
		if len(src) > 255 || len(dst) > 255 {
			return true // out of the encodable domain
		}
		in := &Datagram{
			SrcNode: NodeID(src), DstNode: NodeID(dst),
			SrcPort: sp, DstPort: dp, TTL: ttl, Data: data,
		}
		b, err := AppendDatagram(nil, in)
		if err != nil {
			return false
		}
		var out Datagram
		if err := UnmarshalDatagramInto(&out, b); err != nil {
			return false
		}
		if len(in.Data) == 0 && len(out.Data) == 0 {
			out.Data, in.Data = nil, nil
		}
		return reflect.DeepEqual(in, &out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalDatagramRejectsTruncation(t *testing.T) {
	full, err := AppendDatagram(nil, &Datagram{SrcNode: "a", DstNode: "b", Data: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	var d Datagram
	for cut := 0; cut < len(full)-1; cut++ {
		if err := UnmarshalDatagramInto(&d, full[:cut]); err == nil && cut < 9 {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
	if err := UnmarshalDatagramInto(&d, nil); err == nil {
		t.Fatal("nil input accepted")
	}
}

func TestNeighborsByRange(t *testing.T) {
	n := newFastNetwork(t)
	mustAdd := func(id NodeID, p Position) {
		t.Helper()
		if _, err := n.AddHost(id, p); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd("a", Position{X: 0})
	mustAdd("b", Position{X: 90})
	mustAdd("c", Position{X: 180})
	if got, want := n.Neighbors("a"), []NodeID{"b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Neighbors(a) = %v, want %v", got, want)
	}
	if got, want := n.Neighbors("b"), []NodeID{"a", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Neighbors(b) = %v, want %v", got, want)
	}
	// Moving c away breaks the b-c link.
	n.SetPosition("c", Position{X: 500})
	if got := n.Neighbors("b"); len(got) != 1 || got[0] != "a" {
		t.Fatalf("Neighbors(b) after move = %v", got)
	}
}

func TestLinkOverride(t *testing.T) {
	n := newFastNetwork(t)
	if _, err := n.AddHost("a", Position{}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddHost("b", Position{X: 1000}); err != nil {
		t.Fatal(err)
	}
	if len(n.Neighbors("a")) != 0 {
		t.Fatal("distant nodes should not be neighbours")
	}
	n.SetLink("a", "b", true)
	if got := n.Neighbors("a"); len(got) != 1 || got[0] != "b" {
		t.Fatalf("forced link missing: %v", got)
	}
	n.ClearLink("a", "b")
	if len(n.Neighbors("a")) != 0 {
		t.Fatal("ClearLink did not restore distance rule")
	}
}

func TestUnicastWithinRange(t *testing.T) {
	n := newFastNetwork(t)
	ha, _ := n.AddHost("a", Position{X: 0})
	hb, _ := n.AddHost("b", Position{X: 50})
	ha.SetRouteProvider(staticRoutes{"b": "b"})
	ca, err := ha.Listen(1000)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := hb.Listen(2000)
	if err != nil {
		t.Fatal(err)
	}
	cbIn := inbox(cb)
	defer ca.Close()
	defer cb.Close()
	if err := ca.WriteTo([]byte("hello"), "b", 2000); err != nil {
		t.Fatal(err)
	}
	dg := waitRecv(t, cbIn)
	if string(dg.Data) != "hello" || dg.SrcNode != "a" || dg.SrcPort != 1000 {
		t.Fatalf("bad datagram: %+v", dg)
	}
}

func TestMultihopForwarding(t *testing.T) {
	_, hosts := staticChain(t, Config{BaseDelay: 50 * time.Microsecond}, 4)
	src, dst := hosts[0], hosts[3]
	cs, _ := src.Listen(7)
	cd, _ := dst.Listen(9)
	cdIn := inbox(cd)
	defer cs.Close()
	defer cd.Close()
	if err := cs.WriteTo([]byte("multihop"), dst.ID(), 9); err != nil {
		t.Fatal(err)
	}
	dg := waitRecv(t, cdIn)
	if string(dg.Data) != "multihop" {
		t.Fatalf("payload = %q", dg.Data)
	}
	if want := uint8(DefaultTTL - 2); dg.TTL != want {
		t.Fatalf("TTL = %d, want %d (two relays)", dg.TTL, want)
	}
	// Relays must have counted forwards.
	if f := hosts[1].Stats().Forwarded + hosts[2].Stats().Forwarded; f != 2 {
		t.Fatalf("forwarded = %d, want 2", f)
	}
}

func TestOutOfRangeNotDelivered(t *testing.T) {
	n := newFastNetwork(t)
	ha, _ := n.AddHost("a", Position{X: 0})
	hb, _ := n.AddHost("b", Position{X: 5000})
	ha.SetRouteProvider(staticRoutes{"b": "b"}) // lies: b is not reachable
	ca, _ := ha.Listen(1)
	cb, _ := hb.Listen(2)
	cbIn := inbox(cb)
	defer ca.Close()
	defer cb.Close()
	if err := ca.WriteTo([]byte("void"), "b", 2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if arrived(cbIn) {
		t.Fatal("frame crossed an out-of-range link")
	}
}

func TestLoopbackDelivery(t *testing.T) {
	n := newFastNetwork(t)
	h, _ := n.AddHost("a", Position{})
	app, _ := h.Listen(5060)
	appIn := inbox(app)
	defer app.Close()
	cli, _ := h.Listen(0)
	defer cli.Close()
	if err := cli.WriteTo([]byte("REGISTER"), "a", 5060); err != nil {
		t.Fatal(err)
	}
	dg := waitRecv(t, appIn)
	if string(dg.Data) != "REGISTER" {
		t.Fatalf("payload = %q", dg.Data)
	}
	// Loopback must not touch the radio.
	if fr := n.Stats().TotalFrames(); fr != 0 {
		t.Fatalf("loopback used the medium: %d frames", fr)
	}
}

// TestUnhandledPortDrops pins a port's one delivery path: a datagram for a
// bound port nobody handles is a PortDrop, not a delivery, and nothing is
// queued for a handler installed later.
func TestUnhandledPortDrops(t *testing.T) {
	n := newFastNetwork(t)
	h, _ := n.AddHost("a", Position{})
	app, _ := h.Listen(5060)
	defer app.Close()
	cli, _ := h.Listen(0)
	defer cli.Close()
	if err := cli.WriteTo([]byte("lost"), "a", 5060); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for h.Stats().PortDrops == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := h.Stats(); st.PortDrops != 1 || st.Received != 0 {
		t.Fatalf("PortDrops = %d, Received = %d, want 1 and 0", st.PortDrops, st.Received)
	}
	appIn := inbox(app)
	if err := cli.WriteTo([]byte("kept"), "a", 5060); err != nil {
		t.Fatal(err)
	}
	if dg := waitRecv(t, appIn); string(dg.Data) != "kept" {
		t.Fatalf("handler saw %q, want only what arrived after Handle", dg.Data)
	}
	if st := h.Stats(); st.PortDrops != 1 || st.Received != 1 {
		t.Fatalf("PortDrops = %d, Received = %d, want 1 and 1", st.PortDrops, st.Received)
	}
}

func TestBroadcastReachesAllNeighbors(t *testing.T) {
	n := newFastNetwork(t)
	center, _ := n.AddHost("c", Position{})
	var got [2]chan Frame
	for i, id := range []NodeID{"n1", "n2"} {
		h, _ := n.AddHost(id, Position{X: float64(10 * (i + 1))})
		ch := make(chan Frame, 1)
		got[i] = ch
		if err := h.HandleFrames(KindRouting, func(f Frame) { ch <- f }); err != nil {
			t.Fatal(err)
		}
	}
	far, _ := n.AddHost("far", Position{X: 9999})
	farCh := make(chan Frame, 1)
	if err := far.HandleFrames(KindRouting, func(f Frame) { farCh <- f }); err != nil {
		t.Fatal(err)
	}
	if err := center.SendFrame(Broadcast, KindRouting, []byte("hello-manet")); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		select {
		case f := <-got[i]:
			if f.Src != "c" || string(f.Payload) != "hello-manet" {
				t.Fatalf("neighbour %d got %+v", i, f)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("neighbour %d missed broadcast", i)
		}
	}
	select {
	case <-farCh:
		t.Fatal("out-of-range node received broadcast")
	case <-time.After(20 * time.Millisecond):
	}
}

func TestLossRateDropsFrames(t *testing.T) {
	n := NewNetwork(Config{BaseDelay: 10 * time.Microsecond, LossRate: 1.0, Seed: 7})
	defer n.Close()
	ha, _ := n.AddHost("a", Position{})
	hb, _ := n.AddHost("b", Position{X: 10})
	ha.SetRouteProvider(staticRoutes{"b": "b"})
	ca, _ := ha.Listen(1)
	cb, _ := hb.Listen(2)
	cbIn := inbox(cb)
	if err := ca.WriteTo([]byte("x"), "b", 2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if arrived(cbIn) {
		t.Fatal("frame survived 100% loss")
	}
	if n.Stats().Lost != 1 {
		t.Fatalf("Lost = %d, want 1", n.Stats().Lost)
	}
}

func TestTTLExpiry(t *testing.T) {
	n := newFastNetwork(t)
	hosts, err := Chain(n, 3, 90, "n")
	if err != nil {
		t.Fatal(err)
	}
	hosts[0].SetRouteProvider(staticRoutes{"n.3": "n.2", "n.2": "n.2"})
	hosts[1].SetRouteProvider(staticRoutes{"n.3": "n.3"})
	cd, _ := hosts[2].Listen(5)
	cdIn := inbox(cd)
	defer cd.Close()
	dg := &Datagram{DstNode: "n.3", DstPort: 5, TTL: 1, Data: []byte("dying")}
	if err := hosts[0].SendDatagram(dg); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if arrived(cdIn) {
		t.Fatal("TTL=1 datagram crossed a relay")
	}
	if hosts[1].Stats().TTLExpired != 1 {
		t.Fatalf("TTLExpired = %d, want 1", hosts[1].Stats().TTLExpired)
	}
}

func TestNoRouteReported(t *testing.T) {
	n := newFastNetwork(t)
	h, _ := n.AddHost("a", Position{})
	c, _ := h.Listen(1)
	defer c.Close()
	err := c.WriteTo([]byte("x"), "nowhere", 1)
	if err != ErrNoRoute {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
	if h.Stats().NoRoute != 1 {
		t.Fatalf("NoRoute = %d, want 1", h.Stats().NoRoute)
	}
}

func TestPendingFlushOnRouteFound(t *testing.T) {
	n := newFastNetwork(t)
	ha, _ := n.AddHost("a", Position{X: 0})
	hb, _ := n.AddHost("b", Position{X: 50})
	// A provider that discovers the route only when asked.
	rp := &lazyProvider{routes: staticRoutes{}}
	rp.onRequest = func(dst NodeID) {
		rp.muAdd(dst, dst)
	}
	ha.SetRouteProvider(rp)
	ca, _ := ha.Listen(1)
	cb, _ := hb.Listen(2)
	cbIn := inbox(cb)
	defer ca.Close()
	defer cb.Close()
	if err := ca.WriteTo([]byte("deferred"), "b", 2); err != nil {
		t.Fatal(err)
	}
	dg := waitRecv(t, cbIn)
	if string(dg.Data) != "deferred" {
		t.Fatalf("payload = %q", dg.Data)
	}
}

type lazyProvider struct {
	mu        timedMutex
	routes    staticRoutes
	onRequest func(NodeID)
}

type timedMutex struct{ ch chan struct{} }

func (m *timedMutex) lock() {
	if m.ch == nil {
		m.ch = make(chan struct{}, 1)
	}
	m.ch <- struct{}{}
}
func (m *timedMutex) unlock() { <-m.ch }

func (p *lazyProvider) muAdd(dst, nh NodeID) {
	p.mu.lock()
	p.routes[dst] = nh
	p.mu.unlock()
}

func (p *lazyProvider) NextHop(dst NodeID) (NodeID, bool) {
	p.mu.lock()
	defer p.mu.unlock()
	nh, ok := p.routes[dst]
	return nh, ok
}

func (p *lazyProvider) RequestRoute(dst NodeID, done func(bool)) {
	if p.onRequest != nil {
		p.onRequest(dst)
	}
	done(true)
}

func TestPortLifecycle(t *testing.T) {
	n := newFastNetwork(t)
	h, _ := n.AddHost("a", Position{})
	c1, err := h.Listen(5060)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Listen(5060); err != ErrPortInUse {
		t.Fatalf("double bind err = %v, want ErrPortInUse", err)
	}
	c1.Close()
	c2, err := h.Listen(5060)
	if err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	c2.Close()
	// Ephemeral ports are distinct.
	e1, _ := h.Listen(0)
	e2, _ := h.Listen(0)
	if e1.LocalPort() == e2.LocalPort() {
		t.Fatal("ephemeral ports collided")
	}
	e1.Close()
	e2.Close()
}

func TestStatsByKind(t *testing.T) {
	n := newFastNetwork(t)
	ha, _ := n.AddHost("a", Position{})
	if _, err := n.AddHost("b", Position{X: 10}); err != nil {
		t.Fatal(err)
	}
	if err := ha.SendFrame(Broadcast, KindRouting, []byte("rreq")); err != nil {
		t.Fatal(err)
	}
	ha.SetRouteProvider(staticRoutes{"b": "b"})
	ca, _ := ha.Listen(1)
	defer ca.Close()
	if err := ca.WriteTo([]byte("payload"), "b", 9); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	st := n.Stats()
	if st.RoutingFrames != 1 || st.DataFrames != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.RoutingBytes != 4 {
		t.Fatalf("RoutingBytes = %d", st.RoutingBytes)
	}
	n.ResetStats()
	if n.Stats().TotalFrames() != 0 {
		t.Fatal("ResetStats did not zero counters")
	}
}

func TestRemoveHostStopsTraffic(t *testing.T) {
	n := newFastNetwork(t)
	ha, _ := n.AddHost("a", Position{})
	if _, err := n.AddHost("b", Position{X: 10}); err != nil {
		t.Fatal(err)
	}
	n.RemoveHost("b")
	if got := n.Neighbors("a"); len(got) != 0 {
		t.Fatalf("removed node still a neighbour: %v", got)
	}
	ha.SetRouteProvider(staticRoutes{"b": "b"})
	ca, _ := ha.Listen(1)
	defer ca.Close()
	// Medium silently drops frames toward removed nodes.
	if err := ca.WriteTo([]byte("x"), "b", 1); err != nil {
		t.Fatal(err)
	}
}

func TestMTUEnforced(t *testing.T) {
	n := newFastNetwork(t)
	h, _ := n.AddHost("a", Position{})
	if err := h.SendFrame(Broadcast, KindRouting, make([]byte, MTU+1)); err != ErrFrameTooBig {
		t.Fatalf("err = %v, want ErrFrameTooBig", err)
	}
}

func TestGridAndRandomLayout(t *testing.T) {
	n := newFastNetwork(t)
	hosts, err := Grid(n, 3, 4, 80, "g")
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 12 {
		t.Fatalf("grid size = %d", len(hosts))
	}
	// Interior grid node has 2-4 neighbours at spacing 80 < range 100.
	if nb := n.Neighbors("g.6"); len(nb) < 2 {
		t.Fatalf("grid connectivity too sparse: %v", nb)
	}
	n2 := NewNetwork(Config{})
	defer n2.Close()
	hosts2, err := RandomLayout(n2, 10, 300, 300, 42, "r")
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts2) != 10 {
		t.Fatalf("random layout size = %d", len(hosts2))
	}
	// Determinism: same seed, same positions.
	n3 := NewNetwork(Config{})
	defer n3.Close()
	if _, err := RandomLayout(n3, 10, 300, 300, 42, "r"); err != nil {
		t.Fatal(err)
	}
	for _, id := range n2.Nodes() {
		p2, _ := n2.PositionOf(id)
		p3, _ := n3.PositionOf(id)
		if p2 != p3 {
			t.Fatalf("layout not deterministic for %s: %v vs %v", id, p2, p3)
		}
	}
}

func TestWaypointMobility(t *testing.T) {
	n := newFastNetwork(t)
	if _, err := RandomLayout(n, 5, 200, 200, 3, "m"); err != nil {
		t.Fatal(err)
	}
	w := NewWaypoint(n, 200, 200, 1, 2, 9)
	w.Pin("m.1")
	before := make(map[NodeID]Position)
	for _, id := range n.Nodes() {
		before[id], _ = n.PositionOf(id)
	}
	for range 50 {
		w.Step(1)
	}
	pinned, _ := n.PositionOf("m.1")
	if pinned != before["m.1"] {
		t.Fatal("pinned node moved")
	}
	moved := 0
	for _, id := range n.Nodes() {
		if id == "m.1" {
			continue
		}
		now, _ := n.PositionOf(id)
		if now != before[id] {
			moved++
		}
		if now.X < 0 || now.X > 200 || now.Y < 0 || now.Y > 200 {
			t.Fatalf("node %s left the area: %v", id, now)
		}
	}
	if moved == 0 {
		t.Fatal("no node moved under waypoint mobility")
	}
}

func TestNetworkCloseIdempotent(t *testing.T) {
	n := NewNetwork(fastConfig())
	if _, err := n.AddHost("a", Position{}); err != nil {
		t.Fatal(err)
	}
	n.Close()
	n.Close()
	if _, err := n.AddHost("b", Position{}); err != ErrClosed {
		t.Fatalf("AddHost after close = %v, want ErrClosed", err)
	}
}
