package netem

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"siphoc/internal/clock"
)

// star builds a centre with k neighbours in range of it, each recording a
// copy of every KindRouting payload it is handed, in order, and signalling
// heard once per frame.
type star struct {
	net    *Network
	centre *Host
	mu     sync.Mutex
	got    [][]string // per neighbour
	heard  chan struct{}
}

func newStar(t *testing.T, cfg Config, k int) *star {
	t.Helper()
	s := &star{net: NewNetwork(cfg), got: make([][]string, k), heard: make(chan struct{}, 1024)}
	t.Cleanup(s.net.Close)
	var err error
	if s.centre, err = s.net.AddHost("c", Position{}); err != nil {
		t.Fatal(err)
	}
	for i := range k {
		h, err := s.net.AddHost(NodeName("n", i), Position{X: float64(10 * (i + 1))})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.HandleFrames(KindRouting, func(f Frame) {
			s.mu.Lock()
			s.got[i] = append(s.got[i], string(f.Payload))
			s.mu.Unlock()
			s.heard <- struct{}{}
		}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// await waits for n more frames to be handled.
func (s *star) await(t *testing.T, n int) {
	t.Helper()
	for range n {
		select {
		case <-s.heard:
		case <-time.After(5 * time.Second):
			t.Fatal("a neighbour missed a frame")
		}
	}
}

// sendWire broadcasts payload from the centre the way a routing protocol does:
// built in a lent wire buffer, handed back with SendWire.
func (s *star) sendWire(t *testing.T, payload string) {
	t.Helper()
	if err := s.centre.SendWire(Broadcast, KindRouting, append(TakeWire(len(payload)), payload...)); err != nil {
		t.Fatal(err)
	}
}

// TestSplitFanOutCopiesPerReceiver: a receiver peeled off a broadcast by its
// link's ExtraDelay is delivered a frame of its own. The shared delivery ends
// the wire buffer's life when the undelayed receivers have run — long before
// the delayed one does — and when every receiver is peeled off there is no
// shared delivery at all; either way each receiver reads its own frame's
// bytes, never poison and never the frame sent after it.
func TestSplitFanOutCopiesPerReceiver(t *testing.T) {
	clk := clock.NewFake(time.Unix(9_000_000, 0))
	// One shard and no transmission time: frames due together arrive in the
	// order they were sent.
	s := newStar(t, Config{BaseDelay: time.Millisecond, BytesPerSecond: 1e15, Clock: clk, Shards: 1}, 3)
	first := "the first frame, the longer of the two"
	second := "the second"
	third := bytes.Repeat([]byte("3"), 300) // of the other size class
	want := make([][]string, 3)

	s.net.SetLinkQuality("c", "n.0", LinkQuality{ExtraDelay: 40 * time.Millisecond})
	s.sendWire(t, first)
	s.sendWire(t, second)
	clk.Sleep(2 * time.Millisecond)
	s.await(t, 4) // n.1 and n.2 have both; their buffers are back on the list
	s.sendWire(t, string(third))
	clk.Sleep(2 * time.Millisecond)
	s.await(t, 2)
	clk.Sleep(45 * time.Millisecond)
	s.await(t, 3) // n.0 catches up
	for i := range want {
		want[i] = append(want[i], first, second, string(third))
	}

	for i := range 3 {
		s.net.SetLinkQuality("c", NodeName("n", i), LinkQuality{ExtraDelay: time.Duration(10*(i+1)) * time.Millisecond})
	}
	s.sendWire(t, first)
	s.sendWire(t, second)
	clk.Sleep(45 * time.Millisecond)
	s.await(t, 6)
	for i := range want {
		want[i] = append(want[i], first, second)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range want {
		if fmt.Sprint(s.got[i]) != fmt.Sprint(want[i]) {
			t.Errorf("neighbour %d read %q, want %q", i, s.got[i], want[i])
		}
	}
}

// TestSendFrameLeavesCallerStorageAlone: SendFrame only reads what it is
// handed. The same slice broadcast again and again, as a benchmark driver
// does, is read intact by every receiver every time, and is never recycled or
// poisoned under the caller.
func TestSendFrameLeavesCallerStorageAlone(t *testing.T) {
	s := newStar(t, Config{BaseDelay: 10 * time.Microsecond}, 4)
	hello := bytes.Repeat([]byte("hello "), 20)
	orig := string(hello)
	const sends = 200
	for range sends {
		if err := s.centre.SendFrame(Broadcast, KindRouting, hello); err != nil {
			t.Fatal(err)
		}
	}
	s.await(t, 4*sends)
	if string(hello) != orig {
		t.Fatalf("the caller's slice reads %q after %d sends", hello, sends)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, got := range s.got {
		for j, p := range got {
			if p != orig {
				t.Fatalf("neighbour %d read %q in frame %d", i, p, j)
			}
		}
	}
}

// TestSendWireMovesWhatOutgrewItsBuffer: a frame whose appends outgrew the
// buffer it was lent (and so sits on the heap) is delivered intact and still
// goes on the air in a wire buffer; one built in an MTU buffer that fits the
// small class goes on the air in one, intact, and the MTU buffer is poisoned
// on its way back to the free list; one past the MTU is refused.
func TestSendWireMovesWhatOutgrewItsBuffer(t *testing.T) {
	s := newStar(t, Config{BaseDelay: 10 * time.Microsecond}, 1)
	grown := append(TakeWire(16), bytes.Repeat([]byte("g"), 900)...)
	var onAir Frame
	s.net.SetTap(func(f Frame) { onAir = f })
	if err := s.centre.SendWire(Broadcast, KindRouting, grown); err != nil {
		t.Fatal(err)
	}
	s.await(t, 1)
	s.net.SetTap(nil)
	if !onAir.pooled || cap(onAir.Payload) != MTU {
		t.Errorf("the frame went on the air in a buffer of %d bytes, pooled=%v", cap(onAir.Payload), onAir.pooled)
	}
	s.mu.Lock()
	if got := s.got[0][0]; got != string(grown) {
		t.Errorf("the neighbour read %d bytes %q…", len(got), got[:16])
	}
	s.mu.Unlock()
	roomy := append(TakeWire(MTU), "small"...)
	s.net.SetTap(func(f Frame) { onAir = f })
	if err := s.centre.SendWire(Broadcast, KindRouting, roomy); err != nil {
		t.Fatal(err)
	}
	s.await(t, 1)
	s.net.SetTap(nil)
	if !onAir.pooled || cap(onAir.Payload) != voiceWireBytes {
		t.Errorf("a 5-byte frame went on the air in a buffer of %d bytes, pooled=%v", cap(onAir.Payload), onAir.pooled)
	}
	if string(roomy) != "\xDB\xDB\xDB\xDB\xDB" {
		t.Errorf("the MTU buffer it was built in reads %q, want poison", roomy)
	}
	s.mu.Lock()
	if got := s.got[0][1]; got != "small" {
		t.Errorf("the neighbour read %q, want %q", got, "small")
	}
	s.mu.Unlock()
	huge := append(TakeWire(MTU), make([]byte, MTU+1)...)
	if err := s.centre.SendWire(Broadcast, KindRouting, huge); err != ErrFrameTooBig {
		t.Fatalf("err = %v, want ErrFrameTooBig", err)
	}
}
