package netem

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"siphoc/internal/testutil"
)

// forwardModes are the two ways a delivery comes due: at once (a negative
// BaseDelay, as the UDP underlay sets; zero means "default") or after a
// timer wait. The subtests keep the names they had while a second, per-host
// goroutine core ran beside this one, so their history stays comparable.
var forwardModes = []struct {
	name string
	cfg  Config
}{
	{"eventloop/delay0", Config{BaseDelay: -1}},
	{"eventloop/delay50us", Config{BaseDelay: 50 * time.Microsecond}},
}

func forEachForwardMode(t *testing.T, fn func(t *testing.T, cfg Config)) {
	for _, m := range forwardModes {
		t.Run(m.name, func(t *testing.T) { fn(t, m.cfg) })
	}
}

// staticChain builds k hosts 90 m apart, each with static routes along the
// line to every other.
func staticChain(t testing.TB, cfg Config, k int) (*Network, []*Host) {
	t.Helper()
	n := NewNetwork(cfg)
	t.Cleanup(n.Close)
	hosts, err := Chain(n, k, 90, "10.0.0")
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hosts {
		routes := staticRoutes{}
		for j := range hosts {
			switch {
			case j > i:
				routes[hosts[j].ID()] = hosts[i+1].ID()
			case j < i:
				routes[hosts[j].ID()] = hosts[i-1].ID()
			}
		}
		h.SetRouteProvider(routes)
	}
	return n, hosts
}

// skipAllocPin skips an allocation pin where the count is not the program's
// own: under the race detector sync.Pool drops a quarter of what it is given,
// so the pooled delivery objects are allocated again at random.
func skipAllocPin(t *testing.T) {
	t.Helper()
	if testutil.Race {
		t.Skip("allocation counts are not meaningful under -race")
	}
}

// TestTransitHopAllocFree bounces one datagram between two relays whose
// routes for its destination point at each other: 31 transit hops and the
// hop-limit expiry, for no allocation at all.
func TestTransitHopAllocFree(t *testing.T) {
	skipAllocPin(t)
	forEachForwardMode(t, func(t *testing.T, cfg Config) {
		n := NewNetwork(cfg)
		defer n.Close()
		a, _ := n.AddHost("a", Position{})
		b, _ := n.AddHost("b", Position{X: 50})
		if _, err := n.AddHost("z", Position{X: 5000}); err != nil {
			t.Fatal(err)
		}
		a.SetRouteProvider(staticRoutes{"z": "b"})
		b.SetRouteProvider(staticRoutes{"z": "a"})
		payload, err := AppendDatagram(nil, &Datagram{SrcNode: "a", DstNode: "z", DstPort: 9, Data: make([]byte, 172)})
		if err != nil {
			t.Fatal(err)
		}
		var hdr Datagram
		ttlOff, err := decodeDatagramZeroCopy(&hdr, payload)
		if err != nil {
			t.Fatal(err)
		}
		expired := func() int64 { return a.Stats().TTLExpired + b.Stats().TTLExpired }
		want := expired()
		allocs := testing.AllocsPerRun(50, func() {
			// The previous bounce has expired, so the bytes are ours again.
			payload[ttlOff] = DefaultTTL
			if err := a.SendFrame("b", KindData, payload); err != nil {
				t.Fatal(err)
			}
			want++
			for expired() < want {
				runtime.Gosched()
			}
		})
		if allocs != 0 {
			t.Errorf("%v allocations per %d transit hops, want 0", allocs, DefaultTTL-1)
		}
		if got, want := a.Stats().Forwarded+b.Stats().Forwarded, want*(DefaultTTL-1); got != want {
			t.Errorf("Forwarded = %d, want %d", got, want)
		}
	})
}

// TestWriteToDeliveryAllocBudget pins a datagram's whole life — Conn.WriteTo,
// the relays if any, the destination's handler — at no allocation at all, for
// a voice frame and a SIP message, over one hop and three: the wire buffer is
// recycled and the delivered header rides in the pooled delivery.
func TestWriteToDeliveryAllocBudget(t *testing.T) {
	skipAllocPin(t)
	forEachForwardMode(t, func(t *testing.T, cfg Config) {
		_, hosts := staticChain(t, cfg, 4)
		src, _ := hosts[0].Listen(7)
		arrived := make(chan uint8, 1)
		for _, hops := range []int{1, 3} {
			dst, _ := hosts[hops].Listen(9)
			dst.Handle(func(dg *Datagram) { arrived <- dg.TTL })
			for _, size := range []int{172, 900} {
				data := make([]byte, size)
				var ttl uint8
				allocs := testing.AllocsPerRun(200, func() {
					if err := src.WriteTo(data, hosts[hops].ID(), 9); err != nil {
						t.Fatal(err)
					}
					ttl = <-arrived
				})
				if allocs != 0 {
					t.Errorf("%v allocations per %d-byte datagram over %d hops, want 0", allocs, size, hops)
				}
				if want := uint8(DefaultTTL - hops + 1); ttl != want {
					t.Errorf("TTL at the receiver after %d hops = %d, want %d", hops, ttl, want)
				}
			}
		}
	})
}

// TestLoopbackWriteToAllocFree: a datagram to the sender's own host, which is
// how a phone reaches its proxy, is copied into a recycled buffer and a pooled
// delivery and costs nothing either.
func TestLoopbackWriteToAllocFree(t *testing.T) {
	skipAllocPin(t)
	_, hosts := staticChain(t, Config{BaseDelay: -1}, 1)
	tx, _ := hosts[0].Listen(7)
	rx, _ := hosts[0].Listen(9)
	arrived := make(chan int, 1)
	rx.Handle(func(dg *Datagram) { arrived <- len(dg.Data) })
	data := make([]byte, 900)
	allocs := testing.AllocsPerRun(200, func() {
		if err := tx.WriteTo(data, hosts[0].ID(), 9); err != nil {
			t.Fatal(err)
		}
		<-arrived
	})
	if allocs != 0 {
		t.Errorf("%v allocations per loopback datagram, want 0", allocs)
	}
}

// TestRecycledBufferIsPoisoned: what a handler is lent is overwritten as soon
// as it returns, so a handler that wrongly kept dg.Data reads poison, the same
// on every run, and one that kept a Clone reads its bytes.
func TestRecycledBufferIsPoisoned(t *testing.T) {
	forEachForwardMode(t, func(t *testing.T, cfg Config) {
		_, hosts := staticChain(t, cfg, 2)
		src, _ := hosts[0].Listen(7)
		dst, _ := hosts[1].Listen(9)
		var aliased []byte
		var cloned *Datagram
		handled := make(chan struct{}, 1)
		dst.Handle(func(dg *Datagram) {
			if aliased == nil {
				aliased, cloned = dg.Data, dg.Clone()
			}
			handled <- struct{}{}
		})
		if err := src.WriteTo([]byte("a voice frame"), hosts[1].ID(), 9); err != nil {
			t.Fatal(err)
		}
		<-handled
		// The next datagram for this host runs on the same worker after the
		// first has been recycled, and is too long to be given its buffer.
		if err := src.WriteTo(make([]byte, 900), hosts[1].ID(), 9); err != nil {
			t.Fatal(err)
		}
		<-handled
		if want := bytes.Repeat([]byte{poison[0]}, len(aliased)); !bytes.Equal(aliased, want) {
			t.Errorf("kept alias of dg.Data reads %q, want poison", aliased)
		}
		if string(cloned.Data) != "a voice frame" || cloned.SrcNode != hosts[0].ID() || cloned.SrcPort != 7 || cloned.DstPort != 9 {
			t.Errorf("Clone reads %+v", cloned)
		}
	})
}

// heldDiscovery is a RouteProvider whose discoveries end when the test says
// so, with the routes the test gives it then.
type heldDiscovery struct {
	mu     sync.Mutex
	routes staticRoutes
	done   []func(bool)
}

func (p *heldDiscovery) NextHop(dst NodeID) (NodeID, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	nh, ok := p.routes[dst]
	return nh, ok
}

func (p *heldDiscovery) RequestRoute(_ NodeID, done func(bool)) {
	p.mu.Lock()
	p.done = append(p.done, done)
	p.mu.Unlock()
}

func (p *heldDiscovery) finish(found bool, routes staticRoutes) {
	p.mu.Lock()
	p.routes = routes
	done := p.done
	p.done = nil
	p.mu.Unlock()
	for _, fn := range done {
		fn(found)
	}
}

// TestBorrowedSendDatagram: SendDatagram, InjectDatagram and WriteTo are done
// with the caller's storage when they return, whichever way the datagram goes
// — over a live route, by loopback, or into the pending-discovery queue. The
// caller scribbles over header and data at once and the receiver still sees
// what was sent.
func TestBorrowedSendDatagram(t *testing.T) {
	forEachForwardMode(t, func(t *testing.T, cfg Config) {
		n := NewNetwork(cfg)
		defer n.Close()
		a, _ := n.AddHost("a", Position{})
		b, _ := n.AddHost("b", Position{X: 90})
		rp := &heldDiscovery{}
		a.SetRouteProvider(rp)
		ca, _ := a.Listen(7)
		la, _ := a.Listen(9)
		cb, _ := b.Listen(9)
		aIn, bIn := inbox(la), inbox(cb)

		sends := []struct {
			name string
			send func(dst NodeID, data []byte)
		}{
			{"WriteTo", func(dst NodeID, data []byte) {
				if err := ca.WriteTo(data, dst, 9); err != nil {
					t.Fatal(err)
				}
			}},
			{"SendDatagram", func(dst NodeID, data []byte) {
				dg := Datagram{DstNode: dst, SrcPort: 7, DstPort: 9, Data: data}
				if err := a.SendDatagram(&dg); err != nil {
					t.Fatal(err)
				}
				dg = Datagram{SrcNode: "#", DstNode: "#", DstPort: 1}
			}},
			{"InjectDatagram", func(dst NodeID, data []byte) {
				dg := Datagram{SrcNode: "a", DstNode: dst, SrcPort: 7, DstPort: 9, TTL: DefaultTTL, Data: data}
				a.InjectDatagram(&dg)
				dg = Datagram{SrcNode: "#", DstNode: "#", DstPort: 1}
			}},
		}
		paths := []struct {
			name   string
			dst    NodeID
			in     <-chan *Datagram
			routes staticRoutes // before the send
			found  staticRoutes // what the discovery held during the send finds
		}{
			{"routed", "b", bIn, staticRoutes{"b": "b"}, nil},
			{"loopback", "a", aIn, nil, nil},
			{"no route yet", "b", bIn, nil, staticRoutes{"b": "b"}},
		}
		for _, p := range paths {
			for _, s := range sends {
				rp.finish(false, p.routes)
				want := s.name + " " + p.name
				data := []byte(want)
				s.send(p.dst, data)
				for i := range data {
					data[i] = '#'
				}
				if p.found != nil {
					rp.finish(true, p.found)
				}
				if dg := waitRecv(t, p.in); string(dg.Data) != want || dg.SrcNode != "a" || dg.SrcPort != 7 {
					t.Errorf("%s: received %q from %s:%d", want, dg.Data, dg.SrcNode, dg.SrcPort)
				}
			}
		}
	})
}

// TestFlushPendingCountsWhatItDoes: when discovery reports a route that is
// gone again by the time the queue is flushed, the queued datagrams count as
// NoRoute; and a datagram that was in transit when it was queued counts as
// Forwarded when it is sent from the queue.
func TestFlushPendingCountsWhatItDoes(t *testing.T) {
	forEachForwardMode(t, func(t *testing.T, cfg Config) {
		n := NewNetwork(cfg)
		defer n.Close()
		a, _ := n.AddHost("a", Position{})
		r, _ := n.AddHost("r", Position{X: 90})
		c, _ := n.AddHost("c", Position{X: 180})
		a.SetRouteProvider(staticRoutes{"c": "r"})
		rp := &heldDiscovery{}
		r.SetRouteProvider(rp)
		ca, _ := a.Listen(1)
		cc, _ := c.Listen(2)
		ccIn := inbox(cc)
		queued := func(want int) {
			t.Helper()
			waitFor(t, 2*time.Second, func() bool {
				r.mu.RLock()
				defer r.mu.RUnlock()
				return len(r.pending["c"]) == want
			}, fmt.Sprintf("relay never queued %d datagrams", want))
		}

		for range 3 {
			if err := ca.WriteTo([]byte("transit"), "c", 2); err != nil {
				t.Fatal(err)
			}
		}
		queued(3)
		rp.finish(true, nil) // found, and lost again
		if s := r.Stats(); s.NoRoute != 3 || s.Forwarded != 0 {
			t.Errorf("route lost before the flush: relay stats %+v, want NoRoute 3, Forwarded 0", s)
		}
		if arrived(ccIn) {
			t.Error("a datagram left the relay without a route")
		}

		if err := ca.WriteTo([]byte("transit"), "c", 2); err != nil {
			t.Fatal(err)
		}
		queued(1)
		rp.finish(true, staticRoutes{"c": "c"})
		if dg := waitRecv(t, ccIn); string(dg.Data) != "transit" || dg.TTL != DefaultTTL-1 {
			t.Fatalf("received %+v", dg)
		}
		if s := r.Stats(); s.NoRoute != 3 || s.Forwarded != 1 {
			t.Errorf("relayed from the queue: relay stats %+v, want NoRoute 3, Forwarded 1", s)
		}
		// A datagram the relay originates itself and queues is not a forward.
		rp.finish(false, nil)
		cr, _ := r.Listen(1)
		if err := cr.WriteTo([]byte("own"), "c", 2); err != nil {
			t.Fatal(err)
		}
		queued(1)
		rp.finish(true, staticRoutes{"c": "c"})
		waitRecv(t, ccIn)
		if s := r.Stats(); s.Forwarded != 1 {
			t.Errorf("own datagram sent from the queue: Forwarded = %d, want 1", s.Forwarded)
		}
	})
}

// TestOversizeRefusedBeforeABufferIsTaken: a datagram that cannot fit a frame
// is ErrFrameTooBig, on the medium not at all, and costs the free list nothing.
func TestOversizeRefusedBeforeABufferIsTaken(t *testing.T) {
	n, hosts := staticChain(t, Config{BaseDelay: -1}, 2)
	src, _ := hosts[0].Listen(7)
	big := make([]byte, MTU) // one header too many
	if err := src.WriteTo(big, hosts[1].ID(), 9); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("WriteTo of %d bytes: %v, want ErrFrameTooBig", len(big), err)
	}
	if err := hosts[0].SendDatagram(&Datagram{DstNode: hosts[1].ID(), DstPort: 9, Data: big}); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("SendDatagram of %d bytes: %v, want ErrFrameTooBig", len(big), err)
	}
	if got := n.Stats().TotalFrames(); got != 0 {
		t.Errorf("%d frames on the medium, want 0", got)
	}
	if !testutil.Race {
		if allocs := testing.AllocsPerRun(100, func() { _ = src.WriteTo(big, hosts[1].ID(), 9) }); allocs != 0 {
			t.Errorf("refusing an oversize datagram allocates %v, want 0", allocs)
		}
	}
}

// TestForwardTTLSemantics: a relay spends one hop of the limit whether it
// forwards in place or not, and the tap sees every hop as transmitted.
func TestForwardTTLSemantics(t *testing.T) {
	forEachForwardMode(t, func(t *testing.T, cfg Config) {
		n, hosts := staticChain(t, cfg, 4)
		type hop struct {
			src NodeID
			ttl uint8
		}
		var mu sync.Mutex
		var hops []hop
		n.SetTap(func(f Frame) {
			var dg Datagram
			if f.Kind != KindData || UnmarshalDatagramInto(&dg, f.Payload) != nil {
				return
			}
			mu.Lock()
			hops = append(hops, hop{f.Src, dg.TTL})
			mu.Unlock()
		})
		src, _ := hosts[0].Listen(7)
		dst, _ := hosts[3].Listen(9)
		dstIn := inbox(dst)
		if err := src.WriteTo([]byte("voice"), hosts[3].ID(), 9); err != nil {
			t.Fatal(err)
		}
		dg := waitRecv(t, dstIn)
		if dg.TTL != DefaultTTL-2 || string(dg.Data) != "voice" || dg.SrcNode != hosts[0].ID() || dg.SrcPort != 7 {
			t.Fatalf("received %+v, want TTL %d from %s:7", dg, DefaultTTL-2, hosts[0].ID())
		}
		want := []hop{{hosts[0].ID(), DefaultTTL}, {hosts[1].ID(), DefaultTTL - 1}, {hosts[2].ID(), DefaultTTL - 2}}
		mu.Lock()
		if !reflect.DeepEqual(hops, want) {
			t.Errorf("tap saw %v, want %v", hops, want)
		}
		hops = nil
		mu.Unlock()

		// Hop limit 2: the first relay forwards it with 1 left, the second
		// lets it die.
		if err := hosts[0].SendDatagram(&Datagram{DstNode: hosts[3].ID(), DstPort: 9, TTL: 2, Data: []byte("dying")}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 2*time.Second, func() bool { return hosts[2].Stats().TTLExpired == 1 }, "TTL-2 datagram never expired at the second relay")
		if f1, f2, e1 := hosts[1].Stats().Forwarded, hosts[2].Stats().Forwarded, hosts[1].Stats().TTLExpired; f1 != 2 || f2 != 1 || e1 != 0 {
			t.Errorf("relay 1 forwarded %d expired %d, relay 2 forwarded %d; want 2, 0, 1", f1, e1, f2)
		}
		if arrived(dstIn) {
			t.Error("TTL-2 datagram crossed two relays")
		}
		mu.Lock()
		if want := []hop{{hosts[0].ID(), 2}, {hosts[1].ID(), 1}}; !reflect.DeepEqual(hops, want) {
			t.Errorf("tap saw %v, want %v", hops, want)
		}
		mu.Unlock()
	})
}

// TestTransitWithoutRouteTakesSlowPath: a relay with no route offers the
// datagram to the default handler, queues it, asks for a route and flushes
// the queue when one is found — with one hop of the limit spent once.
func TestTransitWithoutRouteTakesSlowPath(t *testing.T) {
	forEachForwardMode(t, func(t *testing.T, cfg Config) {
		n := NewNetwork(cfg)
		defer n.Close()
		a, _ := n.AddHost("a", Position{})
		r, _ := n.AddHost("r", Position{X: 90})
		c, _ := n.AddHost("c", Position{X: 180})
		a.SetRouteProvider(staticRoutes{"c": "r"})
		rp := &lazyProvider{routes: staticRoutes{}}
		rp.onRequest = func(dst NodeID) { rp.muAdd(dst, dst) }
		r.SetRouteProvider(rp)
		var offered atomic.Int64
		r.SetDefaultHandler(func(dg *Datagram) bool {
			if dg.DstNode == "c" && dg.TTL == DefaultTTL-1 {
				offered.Add(1)
			}
			return false
		})
		ca, _ := a.Listen(1)
		cc, _ := c.Listen(2)
		ccIn := inbox(cc)
		if err := ca.WriteTo([]byte("deferred"), "c", 2); err != nil {
			t.Fatal(err)
		}
		dg := waitRecv(t, ccIn)
		if string(dg.Data) != "deferred" || dg.TTL != DefaultTTL-1 || dg.SrcNode != "a" {
			t.Fatalf("received %+v", dg)
		}
		if offered.Load() != 1 {
			t.Errorf("default handler saw the datagram %d times, want 1", offered.Load())
		}
		if s := r.Stats(); s.NoRoute != 0 || s.TTLExpired != 0 {
			t.Errorf("relay stats %+v, want no drops", s)
		}
	})
}

// TestLoopbackWriteToStaysOffTheMedium: a datagram to the sender's own host
// is delivered without a frame, route or no route.
func TestLoopbackWriteToStaysOffTheMedium(t *testing.T) {
	forEachForwardMode(t, func(t *testing.T, cfg Config) {
		n, hosts := staticChain(t, cfg, 2)
		tx, _ := hosts[0].Listen(7)
		rx, _ := hosts[0].Listen(9)
		rxIn := inbox(rx)
		data := []byte("local")
		if err := tx.WriteTo(data, hosts[0].ID(), 9); err != nil {
			t.Fatal(err)
		}
		data[0] = 'X' // WriteTo is done with data
		dg := waitRecv(t, rxIn)
		if string(dg.Data) != "local" || dg.SrcPort != 7 || dg.TTL != DefaultTTL {
			t.Fatalf("received %+v", dg)
		}
		if got := n.Stats().TotalFrames(); got != 0 {
			t.Errorf("%d frames on the medium, want 0", got)
		}
	})
}

// TestDeliveredNodeIDsDoNotAliasTheFrame: a delivered Datagram carries the
// network's own copy of a node ID it knows, and a copy of its own for one it
// does not.
func TestDeliveredNodeIDsDoNotAliasTheFrame(t *testing.T) {
	forEachForwardMode(t, func(t *testing.T, cfg Config) {
		n := NewNetwork(cfg)
		defer n.Close()
		a, _ := n.AddHost("a.example", Position{})
		b, _ := n.AddHost("b.example", Position{X: 50})
		rx, _ := b.Listen(9)
		rxIn := inbox(rx)
		for _, src := range []NodeID{"a.example", "ghost.example"} {
			payload, err := AppendDatagram(nil, &Datagram{SrcNode: src, DstNode: "b.example", DstPort: 9, TTL: 5, Data: []byte("x")})
			if err != nil {
				t.Fatal(err)
			}
			if err := a.SendFrame("b.example", KindData, payload); err != nil {
				t.Fatal(err)
			}
			dg := waitRecv(t, rxIn)
			// Delivered, so the frame is the receiver's to scribble on.
			for i := range payload[:len(payload)-1] {
				payload[i] = '#'
			}
			if dg.SrcNode != src || dg.DstNode != "b.example" {
				t.Fatalf("node IDs changed with the frame: %+v", dg)
			}
			known := src == a.ID()
			if shared := unsafe.StringData(string(dg.SrcNode)) == unsafe.StringData(string(a.ID())); shared != known {
				t.Errorf("SrcNode %q shares the host table's string: %v, want %v", src, shared, known)
			}
		}
	})
}

// lossChainGolden is the set of datagrams, of 600 sent one at a time down a
// 3-hop chain at 1 % loss with seed 42, that the medium drops. It was recorded
// at the commit before relays forwarded in place: the same frames cross the
// same links in the same order, so the loss draws fall on the same ones.
var lossChainGolden = []int{39, 180, 258, 264, 297, 322, 340, 354, 366, 380, 386, 421, 422, 430, 442, 456, 470, 474, 548, 549, 555}

func TestSeededLossChainGolden(t *testing.T) {
	forEachForwardMode(t, func(t *testing.T, cfg Config) {
		cfg.LossRate, cfg.Seed = 0.01, 42
		n, hosts := staticChain(t, cfg, 4)
		src, _ := hosts[0].Listen(7)
		dst, _ := hosts[3].Listen(9)
		var got atomic.Int64
		dst.Handle(func(*Datagram) { got.Add(1) })
		var lost []int
		for i := 0; i < 600; i++ {
			before, delivered := n.Stats().Lost, got.Load()+1
			if err := src.WriteTo([]byte(fmt.Sprint(i)), hosts[3].ID(), 9); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 2*time.Second, func() bool { return got.Load() == delivered || n.Stats().Lost > before },
				fmt.Sprintf("datagram %d neither arrived nor was lost", i))
			if got.Load() != delivered {
				lost = append(lost, i)
			}
		}
		if !reflect.DeepEqual(lost, lossChainGolden) {
			t.Errorf("lost %v\nwant %v", lost, lossChainGolden)
		}
	})
}

// TestBroadcastLossSharesNeighbourhood: on a lossy radio a broadcast that
// loses no receiver delivers to the cached neighbourhood slice itself, for no
// allocation; one that does lose some delivers to a copy without them, and the
// cache is never written through.
func TestBroadcastLossSharesNeighbourhood(t *testing.T) {
	star := func(loss float64) (*Network, *Host, *atomic.Int64) {
		n := NewNetwork(Config{BaseDelay: -1, LossRate: loss, Seed: 9})
		t.Cleanup(n.Close)
		centre, _ := n.AddHost("c", Position{})
		var got atomic.Int64
		for i, pos := range []Position{{X: 50}, {X: -50}, {Y: 50}, {Y: -50}} {
			h, err := n.AddHost(NodeName("n", i), pos)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.HandleFrames(KindRouting, func(Frame) { got.Add(1) }); err != nil {
				t.Fatal(err)
			}
		}
		return n, centre, &got
	}
	hello := make([]byte, 120)

	t.Run("no receiver lost", func(t *testing.T) {
		skipAllocPin(t)
		_, centre, got := star(1e-12)
		var want int64
		allocs := testing.AllocsPerRun(200, func() {
			if err := centre.SendFrame(Broadcast, KindRouting, hello); err != nil {
				t.Fatal(err)
			}
			want += 4
			for got.Load() < want {
				runtime.Gosched()
			}
		})
		if allocs != 0 {
			t.Errorf("%v allocations per broadcast that lost nobody, want 0", allocs)
		}
	})

	t.Run("half lost", func(t *testing.T) {
		n, centre, got := star(0.5)
		cached := append([]*Host(nil), n.neighborhoodOf("c").hosts...)
		const sent = 500
		for range sent {
			if err := centre.SendFrame(Broadcast, KindRouting, hello); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, 2*time.Second, func() bool { return got.Load()+n.Stats().Lost == 4*sent }, "deliveries and losses never added up to the receivers")
		if lost := n.Stats().Lost; lost < sent || lost > 3*sent {
			t.Errorf("lost %d of %d copies at 50 %% loss", lost, 4*sent)
		}
		if now := n.neighborhoodOf("c").hosts; !reflect.DeepEqual(now, cached) {
			t.Errorf("cached neighbourhood changed under loss: %d hosts, was %d", len(now), len(cached))
		}
	})
}
