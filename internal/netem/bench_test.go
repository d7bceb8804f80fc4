package netem

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkMediumBroadcast64 is the broadcast-storm stress case: an 8x8 grid
// (64 nodes, dense neighbourhoods) where every iteration broadcasts a routing
// frame from a rotating sender. It exercises the medium's receiver-set
// computation and delivery scheduling — the per-frame hot path under the
// paper's scaling experiments.
func BenchmarkMediumBroadcast64(b *testing.B) {
	n := NewNetwork(Config{BaseDelay: 10 * time.Microsecond})
	defer n.Close()
	hosts, err := Grid(n, 8, 8, 70, "g")
	if err != nil {
		b.Fatal(err)
	}
	var delivered atomic.Int64
	for _, h := range hosts {
		if err := h.HandleFrames(KindRouting, func(Frame) { delivered.Add(1) }); err != nil {
			b.Fatal(err)
		}
	}
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	i := 0
	for b.Loop() {
		if err := hosts[i%len(hosts)].SendFrame(Broadcast, KindRouting, payload); err != nil {
			b.Fatal(err)
		}
		i++
	}
	b.StopTimer()
	st := n.Stats()
	b.ReportMetric(float64(st.Deliveries)/float64(b.N), "rx/op")
}

// BenchmarkMediumUnicast measures the single-receiver fast path: one frame
// per iteration between two in-range nodes, delivered through the scheduler.
func BenchmarkMediumUnicast(b *testing.B) {
	n := NewNetwork(Config{BaseDelay: 10 * time.Microsecond})
	defer n.Close()
	ha, err := n.AddHost("a", Position{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := n.AddHost("b", Position{X: 10}); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	b.ReportAllocs()
	for b.Loop() {
		if err := ha.SendFrame("b", KindRouting, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNeighbors measures the public neighbourhood query on the 64-node
// grid (routing protocols call this on every hello interval).
func BenchmarkNeighbors(b *testing.B) {
	n := NewNetwork(Config{BaseDelay: 10 * time.Microsecond})
	defer n.Close()
	if _, err := Grid(n, 8, 8, 70, "g"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if got := n.Neighbors("g.28"); len(got) == 0 {
			b.Fatal("no neighbours")
		}
	}
}

// BenchmarkConnWriteTo is a datagram's whole life on the data path, one at a
// time: Conn.WriteTo, the relays if any, the destination port's handler. The
// sizes are a G.711 frame under its RTP header and a SIP message; allocs/op
// is the gated number (wire buffer and delivered header are recycled). No
// simulated delay, so ns/op is the code and not the host's timer slack.
func BenchmarkConnWriteTo(b *testing.B) {
	for _, hops := range []int{1, 3} {
		for _, size := range []int{172, 900} {
			b.Run(fmt.Sprintf("%dB/%dhop", size, hops), func(b *testing.B) {
				_, hosts := staticChain(b, Config{BaseDelay: -1, BytesPerSecond: -1}, hops+1)
				src, _ := hosts[0].Listen(7)
				dst, _ := hosts[hops].Listen(9)
				arrived := make(chan struct{}, 1)
				dst.Handle(func(*Datagram) { arrived <- struct{}{} })
				data := make([]byte, size)
				b.ReportAllocs()
				for b.Loop() {
					if err := src.WriteTo(data, hosts[hops].ID(), 9); err != nil {
						b.Fatal(err)
					}
					<-arrived
				}
			})
		}
	}
}

// BenchmarkBroadcastFrame is a link broadcast's whole life, one at a time:
// from the send to the last of four neighbours' handlers, at a HELLO's size
// and at that of a frame carrying a burst of adverts. SendFrame is handed a
// slice that stays the caller's; SendWire is how the routing protocols send, a
// frame built in a lent wire buffer (see Frame). allocs/op is the gated number.
func BenchmarkBroadcastFrame(b *testing.B) {
	for _, size := range []int{120, 900} {
		for _, how := range []string{"SendFrame", "SendWire"} {
			b.Run(fmt.Sprintf("%dB/%s", size, how), func(b *testing.B) {
				n := NewNetwork(Config{BaseDelay: -1, BytesPerSecond: -1})
				defer n.Close()
				centre, err := n.AddHost("c", Position{})
				if err != nil {
					b.Fatal(err)
				}
				var heard atomic.Int64
				done := make(chan struct{}, 1)
				for i, pos := range []Position{{X: 50}, {X: -50}, {Y: 50}, {Y: -50}} {
					h, err := n.AddHost(NodeName("n", i), pos)
					if err != nil {
						b.Fatal(err)
					}
					if err := h.HandleFrames(KindRouting, func(Frame) {
						if heard.Add(1)%4 == 0 {
							done <- struct{}{}
						}
					}); err != nil {
						b.Fatal(err)
					}
				}
				payload := make([]byte, size)
				b.ReportAllocs()
				for b.Loop() {
					if how == "SendWire" {
						err = centre.SendWire(Broadcast, KindRouting, append(TakeWire(size), payload...))
					} else {
						err = centre.SendFrame(Broadcast, KindRouting, payload)
					}
					if err != nil {
						b.Fatal(err)
					}
					<-done
				}
			})
		}
	}
}
