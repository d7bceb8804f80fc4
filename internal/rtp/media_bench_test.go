package rtp

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
)

// The micro-benchmarks pin the per-frame codec cost of the old allocating
// API (NewVoiceFrame and a fresh buffer, Parse) against the zero-alloc fast path the
// pacer and receive loop use (AppendVoicePayload/AppendTo, ParseInto). The
// allocs/op columns are the ≥10× claim in DESIGN.md §9: the old send path
// pays three allocations per frame and the old parse one, the new paths pay
// zero.

var benchWire []byte

func BenchmarkVoiceFrameMarshal(b *testing.B) {
	sentAt := time.Unix(1000, 0)
	b.ReportAllocs()
	for i := 0; b.N > i; i++ {
		pkt := NewVoiceFrame(7, uint32(i), sentAt)
		benchWire = pkt.AppendTo(make([]byte, 0, headerLen+len(pkt.Payload)))
	}
}

func BenchmarkVoiceFrameAppendTo(b *testing.B) {
	payload := make([]byte, 0, PayloadBytes)
	wire := make([]byte, 0, headerLen+PayloadBytes)
	sentAt := time.Unix(1000, 0)
	b.ReportAllocs()
	for i := 0; b.N > i; i++ {
		payload = AppendVoicePayload(payload[:0], uint32(i), sentAt)
		p := Packet{
			PayloadType: PayloadTypePCMU,
			Seq:         uint16(i),
			Timestamp:   uint32(i) * SamplesPerFrame,
			SSRC:        7,
			Payload:     payload,
		}
		wire = p.AppendTo(wire[:0])
	}
	benchWire = wire
}

var benchPkt *Packet

func BenchmarkPacketParseInto(b *testing.B) {
	wire := NewVoiceFrame(7, 3, time.Unix(1000, 0)).AppendTo(nil)
	var pkt Packet
	b.ReportAllocs()
	for i := 0; b.N > i; i++ {
		if err := ParseInto(&pkt, wire); err != nil {
			b.Fatal(err)
		}
	}
	benchPkt = &pkt
}

// BenchmarkMediaScale is the concurrent-call scale benchmark: M bidirectional
// 50 pps voice streams across M isolated radio pairs, each paced on its host's
// shard of the network's scheduler, on a fake clock. Reported metrics:
//
//	frames/s     — end-to-end frame throughput of the whole media plane
//	allocs/frame — total heap allocations (send + network + receive + playout)
//	               divided by frames carried
//	goroutines   — goroutines the network, the 2M sessions and the 2M live
//	               streams own between them: the network's shard workers,
//	               regardless of M (the benchmark fails on any other count)
func BenchmarkMediaScale(b *testing.B) {
	for _, streams := range []int{1, 8, 32, 128} {
		b.Run("streams="+strconv.Itoa(streams), func(b *testing.B) {
			benchMediaScale(b, streams)
		})
	}
}

func benchMediaScale(b *testing.B, streams int) {
	const frames = 50
	var totalMallocs, totalFrames uint64
	var streaming time.Duration
	goroutines := 0
	b.ReportAllocs()
	for it := 0; b.N > it; it++ {
		b.StopTimer()
		clk := clock.NewFake(time.Unix(3_000_000, 0))
		base := runtime.NumGoroutine()
		net := netem.NewNetwork(netem.Config{BaseDelay: 200 * time.Microsecond, Clock: clk})
		type pair struct {
			send, recv     *Session
			sendID, recvID netem.NodeID
		}
		pairs := make([]pair, streams)
		for i := range streams {
			// Pairs sit 50 m apart, 1 km from the next pair: each stream
			// has its own interference-free radio cell.
			ha, err := net.AddHost(netem.NodeName("s", i+1), netem.Position{X: float64(i) * 1000})
			if err != nil {
				b.Fatal(err)
			}
			hb, err := net.AddHost(netem.NodeName("r", i+1), netem.Position{X: float64(i)*1000 + 50})
			if err != nil {
				b.Fatal(err)
			}
			ha.SetRouteProvider(directRoutes{})
			hb.SetRouteProvider(directRoutes{})
			ca, err := ha.Listen(4000)
			if err != nil {
				b.Fatal(err)
			}
			cb, err := hb.Listen(4001)
			if err != nil {
				b.Fatal(err)
			}
			pairs[i] = pair{
				send:   NewSession(ca, uint32(i+1)),
				recv:   NewSession(cb, uint32(1000+i)),
				sendID: ha.ID(),
				recvID: hb.ID(),
			}
		}
		handles := make([]*Stream, 0, 2*streams)
		for _, p := range pairs {
			// Bidirectional: the receiver talks back on the sender's port.
			handles = append(handles,
				p.send.StartStream(p.recvID, 4001, frames),
				p.recv.StartStream(p.sendID, 4000, frames))
		}
		goroutines = runtime.NumGoroutine() - base
		if want := pairs[0].send.sched.Shards(); goroutines != want {
			b.Fatalf("%d two-way streams run on %d goroutines, want the network's %d shard workers", streams, goroutines, want)
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		b.StartTimer()
		for _, h := range handles {
			h.Wait()
		}
		clk.Sleep(10 * FrameDuration) // flush in-flight deliveries and the playout buffers
		b.StopTimer()
		streaming += time.Since(start)
		runtime.ReadMemStats(&ms1)
		totalMallocs += ms1.Mallocs - ms0.Mallocs
		totalFrames += uint64(2 * streams * frames)
		for _, h := range handles {
			if got := h.Wait(); got != frames {
				b.Fatalf("stream sent %d frames, want %d", got, frames)
			}
		}
		for _, p := range pairs {
			p.send.Close()
			p.recv.Close()
		}
		net.Close()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(totalFrames)/streaming.Seconds(), "frames/s")
	b.ReportMetric(float64(totalMallocs)/float64(totalFrames), "allocs/frame")
	b.ReportMetric(float64(goroutines), "goroutines")
}
