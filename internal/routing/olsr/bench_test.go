package olsr

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"

	"siphoc/internal/netem"
)

// BenchmarkControlFrame is a control frame's whole life, one at a time: from
// the protocol that emits it — a HELLO on its beat, a TC relayed for an MPR
// selector, each with a digest-sized extension — to the last of the four
// neighbours that hear it. allocs/op is the gated number: the frame is written
// once into a wire buffer off the free list, which goes back when the fan-out
// is over (see netem.Frame).
func BenchmarkControlFrame(b *testing.B) {
	setup := func(b *testing.B) (*Protocol, <-chan struct{}) {
		net := netem.NewNetwork(netem.Config{BaseDelay: -1, BytesPerSecond: -1})
		b.Cleanup(net.Close)
		self, err := net.AddHost("self", netem.Position{})
		if err != nil {
			b.Fatal(err)
		}
		p := New(self, Config{TCInterval: time.Nanosecond, TopologyHold: time.Hour, NeighborHold: time.Hour}.withDefaults())
		p.SetPiggyback(digestHandler{})
		var heard atomic.Int64
		done := make(chan struct{}, 1)
		for i, pos := range []netem.Position{{X: 50}, {X: -50}, {Y: 50}, {Y: -50}} {
			h, err := net.AddHost(netem.NodeName("n", i), pos)
			if err != nil {
				b.Fatal(err)
			}
			if err := h.HandleFrames(netem.KindRouting, func(netem.Frame) {
				if heard.Add(1)%4 == 0 {
					done <- struct{}{}
				}
			}); err != nil {
				b.Fatal(err)
			}
			// Every neighbour is symmetric and selects this node as its MPR.
			p.onHello(h.ID(), &Hello{Neighbors: []HelloNeighbor{{Addr: "self", Link: LinkSym, MPR: true}}})
		}
		return p, done
	}
	b.Run("HelloEmit", func(b *testing.B) {
		p, done := setup(b)
		b.ReportAllocs()
		for b.Loop() {
			p.sendHello()
			<-done
		}
	})
	b.Run("TCRelay", func(b *testing.B) {
		p, done := setup(b)
		m := &TC{Orig: "orig", ANSN: 7, TTL: 5, Selectors: []netem.NodeID{"a", "b", "c"}}
		body := m.AppendTo(nil)
		seqOff := 2 + len(m.Orig)
		var seq uint16
		b.ReportAllocs()
		for b.Loop() {
			seq++
			binary.BigEndian.PutUint16(body[seqOff:], seq)
			p.handleTC("n.0", body)
			<-done
		}
	})
}
