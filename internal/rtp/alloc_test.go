package rtp

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/testutil"
)

// TestZeroAllocSendPath pins the steady-state per-frame cost of a stream's
// send path — synthesize the payload, fill the header, encode to the wire —
// at zero allocations once the per-stream scratch buffers exist.
func TestZeroAllocSendPath(t *testing.T) {
	payload := make([]byte, 0, PayloadBytes)
	wire := make([]byte, 0, headerLen+PayloadBytes)
	var pkt Packet
	sentAt := time.Unix(1000, 0)
	i := uint32(0)
	allocs := testing.AllocsPerRun(1000, func() {
		payload = AppendVoicePayload(payload[:0], i, sentAt)
		pkt = Packet{
			PayloadType: PayloadTypePCMU,
			Seq:         uint16(i),
			Timestamp:   i * SamplesPerFrame,
			SSRC:        7,
			Payload:     payload,
		}
		wire = pkt.AppendTo(wire[:0])
		i++
	})
	if allocs != 0 {
		t.Fatalf("send path allocates %.1f/frame, want 0", allocs)
	}
}

// TestZeroAllocParse pins the zero-copy decode at zero allocations: the
// payload borrows the wire buffer instead of copying.
func TestZeroAllocParse(t *testing.T) {
	wire := NewVoiceFrame(7, 3, time.Unix(1000, 0)).AppendTo(nil)
	var pkt Packet
	var parseErr error
	allocs := testing.AllocsPerRun(1000, func() {
		parseErr = ParseInto(&pkt, wire)
	})
	if parseErr != nil {
		t.Fatal(parseErr)
	}
	if allocs != 0 {
		t.Fatalf("ParseInto allocates %.1f/frame, want 0", allocs)
	}
	if len(pkt.Payload) != PayloadBytes {
		t.Fatalf("payload = %d bytes, want %d", len(pkt.Payload), PayloadBytes)
	}
	if &pkt.Payload[0] != &wire[headerLen] {
		t.Fatal("ParseInto copied the payload instead of borrowing the buffer")
	}
}

// TestZeroAllocReceiveSteadyState pins the in-order receive hot path —
// zero-copy parse, Receiver.Observe, jitter-buffer Put + FlushDue — at zero
// steady-state allocations (the map reaches a stable size once playout
// keeps up with arrivals).
func TestZeroAllocReceiveSteadyState(t *testing.T) {
	var recv Receiver
	jb := NewJitterBuffer(40 * time.Millisecond)
	base := time.Unix(1000, 0)
	wire := make([]byte, 0, headerLen+PayloadBytes)
	payload := make([]byte, 0, PayloadBytes)
	seq := uint32(0)
	feed := func() {
		now := base.Add(time.Duration(seq) * FrameDuration)
		payload = AppendVoicePayload(payload[:0], seq, now)
		p := Packet{PayloadType: PayloadTypePCMU, Seq: uint16(seq), Timestamp: seq * SamplesPerFrame, SSRC: 7, Payload: payload}
		wire = p.AppendTo(wire[:0])
		var pkt Packet
		if err := ParseInto(&pkt, wire); err != nil {
			panic(err)
		}
		recv.Observe(&pkt, now)
		jb.Put(&pkt, now)
		jb.FlushDue(now)
		seq++
	}
	// Warm up until the buffer footprint is stable, then measure.
	for range 256 {
		feed()
	}
	allocs := testing.AllocsPerRun(1000, feed)
	if allocs != 0 {
		t.Fatalf("receive path allocates %.1f/frame steady-state, want 0", allocs)
	}
	t.Run("session", sessionReceiveAllocFree)
}

// sessionReceiveAllocFree is the same pin through the real thing: a frame
// written to a Conn, carried by the medium in a recycled wire buffer and
// handled by Session.onDatagram, which buffers its header only, costs no
// allocation at either end once playout has started.
func sessionReceiveAllocFree(t *testing.T) {
	if testutil.Race {
		t.Skip("allocation counts are not meaningful under -race")
	}
	n := netem.NewNetwork(netem.Config{BaseDelay: -1})
	defer n.Close()
	a, _ := n.AddHost("a", netem.Position{})
	b, _ := n.AddHost("b", netem.Position{X: 50})
	a.SetRouteProvider(directRoutes{})
	ca, err := a.Listen(4000)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Listen(4000)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(cb, 22)
	defer s.Close()
	wire := make([]byte, 0, headerLen+PayloadBytes)
	payload := make([]byte, 0, PayloadBytes)
	seq := uint32(0)
	feed := func() {
		payload = AppendVoicePayload(payload[:0], seq, time.Now())
		p := Packet{PayloadType: PayloadTypePCMU, Seq: uint16(seq), Timestamp: seq * SamplesPerFrame, SSRC: 11, Payload: payload}
		wire = p.AppendTo(wire[:0])
		if err := ca.WriteTo(wire, "b", 4000); err != nil {
			panic(err)
		}
		seq++
		for s.Stats().Received < int64(seq) {
			runtime.Gosched()
		}
	}
	// Frames arrive as fast as they are handled, so the jitter buffer fills
	// for one playout delay and is steady after it.
	for start := time.Now(); time.Since(start) < 2*DefaultPlayoutDelay; {
		feed()
	}
	if played, _, _ := s.PlayoutStats(); played == 0 {
		t.Fatal("playout never started")
	}
	allocs := testing.AllocsPerRun(1000, feed)
	if allocs != 0 {
		t.Fatalf("WriteTo → Session.onDatagram allocates %.1f/frame steady-state, want 0", allocs)
	}
	if st := s.Stats(); st.Lost != 0 {
		t.Fatalf("lost %d of %d frames on a lossless medium", st.Lost, seq)
	}
}

// TestMediaSessionDoesNotGrow pins what a call's media costs — a session at
// each end and a stream each way, from NewSession to Close — at a count that
// does not depend on how long the call talks: the streams' scratch, the
// jitter buffer and the stream list are inline or sized up front, so
// neither 5 nor 400 frames make anything grow.
func TestMediaSessionDoesNotGrow(t *testing.T) {
	if testutil.Race {
		t.Skip("allocation counts are not meaningful under -race")
	}
	clk := clock.NewFake(time.Unix(3_000_000, 0))
	n := netem.NewNetwork(netem.Config{BaseDelay: 200 * time.Microsecond, Clock: clk})
	defer n.Close()
	a, _ := n.AddHost("a", netem.Position{})
	b, _ := n.AddHost("b", netem.Position{X: 50})
	a.SetRouteProvider(directRoutes{})
	b.SetRouteProvider(directRoutes{})
	media := func(frames int) uint64 {
		ca, err := a.Listen(4000)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := b.Listen(4001)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sa, sb := NewSession(ca, 1), NewSession(cb, 2)
		out, back := sa.StartStream("b", 4001, frames), sb.StartStream("a", 4000, frames)
		out.Wait()
		back.Wait()
		clk.Sleep(FrameDuration)
		if sa.Stats().Received != int64(frames) || sb.Stats().Received != int64(frames) {
			t.Fatalf("received %d and %d of %d frames", sa.Stats().Received, sb.Stats().Received, frames)
		}
		sa.Close()
		sb.Close()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	// The medium's deliveries and wire buffers come from sync.Pools, which a
	// collection empties and which grow per processor: either costs
	// allocations that have nothing to do with the media plane.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	media(5) // warm those pools
	short, long := media(5), media(400)
	t.Logf("a call's media: %d allocations for 5 frames each way, %d for 400", short, long)
	if long != short {
		t.Errorf("400 frames each way cost %d allocations, 5 cost %d: something grows", long, short)
	}
	// 18 measured, each end's Listen and Close included. A jitter buffer of
	// its own, a deadline heap grown 1→2→4, a stream list grown from nil and
	// two scratch buffers per stream made it 34.
	const budget = 18
	if short > budget {
		t.Errorf("a call's media costs %d allocations, budget %d", short, budget)
	}
}
