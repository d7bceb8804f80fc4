package netem

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
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
func staticChain(t *testing.T, cfg Config, k int) (*Network, []*Host) {
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
	if raceEnabled {
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
		payload, err := marshalDatagram(&Datagram{SrcNode: "a", DstNode: "z", DstPort: 9, Data: make([]byte, 172)})
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

// TestWriteToDeliveryAllocBudget pins a datagram's whole life over three hops
// — Conn.WriteTo, two relays, the destination's handler — at the wire buffer
// and the delivered Datagram.
func TestWriteToDeliveryAllocBudget(t *testing.T) {
	skipAllocPin(t)
	forEachForwardMode(t, func(t *testing.T, cfg Config) {
		_, hosts := staticChain(t, cfg, 4)
		src, _ := hosts[0].Listen(7)
		dst, _ := hosts[3].Listen(9)
		arrived := make(chan uint8, 1)
		dst.Handle(func(dg *Datagram) { arrived <- dg.TTL })
		data := make([]byte, 172)
		var ttl uint8
		allocs := testing.AllocsPerRun(200, func() {
			if err := src.WriteTo(data, hosts[3].ID(), 9); err != nil {
				t.Fatal(err)
			}
			ttl = <-arrived
		})
		if allocs > 2 {
			t.Errorf("%v allocations per datagram over 3 hops, want <= 2", allocs)
		}
		if ttl != DefaultTTL-2 {
			t.Errorf("TTL at the receiver = %d, want %d", ttl, DefaultTTL-2)
		}
	})
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
		data[0] = 'X' // WriteTo copied
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
			payload, err := marshalDatagram(&Datagram{SrcNode: src, DstNode: "b.example", DstPort: 9, TTL: 5, Data: []byte("x")})
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
