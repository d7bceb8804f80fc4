package rtp

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/testutil"
)

// pairNet builds a two-host network one radio hop apart on the real clock.
func pairNet(t *testing.T) (*netem.Network, *netem.Host, *netem.Host) {
	t.Helper()
	n := netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond})
	t.Cleanup(n.Close)
	a, err := n.AddHost("a", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.AddHost("b", netem.Position{X: 50})
	if err != nil {
		t.Fatal(err)
	}
	a.SetRouteProvider(directRoutes{})
	b.SetRouteProvider(directRoutes{})
	return n, a, b
}

// TestPacerManyConcurrentStreams drives 32 concurrent streams through their
// host's scheduler while stats readers hammer the sessions — the -race target
// of the media fast path. All frames must arrive, and the media plane must own
// no goroutine: the network's shard workers are all there is.
func TestPacerManyConcurrentStreams(t *testing.T) {
	base := runtime.NumGoroutine()
	_, a, b := pairNet(t)

	const streams = 32
	const frames = 8
	ca, err := a.Listen(4000)
	if err != nil {
		t.Fatal(err)
	}
	sender := NewSession(ca, 1)
	defer sender.Close()
	recvs := make([]*Session, streams)
	for i := range streams {
		conn, err := b.Listen(uint16(5000 + i))
		if err != nil {
			t.Fatal(err)
		}
		recvs[i] = NewSession(conn, uint32(100+i))
		defer recvs[i].Close()
	}
	handles := make([]*Stream, streams)
	for i := range streams {
		handles[i] = sender.StartStream("b", uint16(5000+i), frames)
	}
	if got, want := runtime.NumGoroutine()-base, a.Sched().Shards(); got != want {
		t.Errorf("network, %d sessions and %d live streams run on %d goroutines, want the %d shard workers",
			streams+1, streams, got, want)
	}

	// Concurrent readers racing the shard workers' writes.
	stop := make(chan struct{})
	readers := make(chan struct{})
	go func() {
		defer close(readers)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = sender.Sent()
			for _, h := range handles {
				_ = h.Sent()
			}
			for _, r := range recvs {
				_, _, _ = r.PlayoutStats()
				_ = r.Stats()
			}
			time.Sleep(time.Millisecond)
		}
	}()

	for i, h := range handles {
		if got := h.Wait(); got != frames {
			t.Errorf("stream %d sent %d frames, want %d", i, got, frames)
		}
	}
	close(stop)
	<-readers
	if got := sender.Sent(); got != streams*frames {
		t.Errorf("session sent %d, want %d", got, streams*frames)
	}
	// Every frame is delivered (no loss configured); wait for the tail.
	deadline := time.Now().Add(5 * time.Second)
	for i, r := range recvs {
		for r.Stats().Received < frames {
			if time.Now().After(deadline) {
				t.Fatalf("receiver %d got %d/%d frames", i, r.Stats().Received, frames)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestStreamStop cancels a long stream mid-flight: Wait unblocks with the
// partial count and no further frames are sent.
func TestStreamStop(t *testing.T) {
	_, a, b := pairNet(t)
	ca, err := a.Listen(4000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Listen(4001); err != nil {
		t.Fatal(err)
	}
	s := NewSession(ca, 1)
	defer s.Close()
	st := s.StartStream("b", 4001, 100000)
	for st.Sent() == 0 {
		time.Sleep(time.Millisecond)
	}
	st.Stop()
	got := st.Wait()
	if got == 0 || got == 100000 {
		t.Fatalf("stopped stream sent %d frames, want partial", got)
	}
	sent := st.Sent()
	time.Sleep(50 * time.Millisecond)
	if st.Sent() != sent {
		t.Fatalf("stream kept sending after Stop: %d -> %d", sent, st.Sent())
	}
}

// TestSessionCloseUnblocksStreams closes a session with an active stream;
// the blocking SendStream caller must return promptly.
func TestSessionCloseUnblocksStreams(t *testing.T) {
	_, a, b := pairNet(t)
	ca, err := a.Listen(4000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Listen(4001); err != nil {
		t.Fatal(err)
	}
	s := NewSession(ca, 1)
	done := make(chan int, 1)
	go func() { done <- s.SendStream("b", 4001, 100000) }()
	time.Sleep(20 * time.Millisecond)
	s.Close()
	select {
	case n := <-done:
		if n >= 100000 {
			t.Fatalf("SendStream returned %d after close, want partial", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SendStream never returned after session close")
	}
}

// TestStreamEdgeCases covers zero-frame streams and streams started on a
// closed session: both must finish immediately without touching the scheduler.
func TestStreamEdgeCases(t *testing.T) {
	_, a, b := pairNet(t)
	ca, err := a.Listen(4000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Listen(4001); err != nil {
		t.Fatal(err)
	}
	s := NewSession(ca, 1)
	if got := s.SendStream("b", 4001, 0); got != 0 {
		t.Fatalf("zero-frame stream sent %d", got)
	}
	s.Close()
	if got := s.SendStream("b", 4001, 5); got != 0 {
		t.Fatalf("stream on closed session sent %d", got)
	}
}

// TestNetworkCloseFinishesStreams closes the network under a live stream: the
// stream's task is still queued on the scheduler, whose shutdown must run its
// drop hook, so Wait returns the frames sent so far instead of hanging, and
// every goroutine the network owned is gone. (core has the same test with a
// parked trunk flush beside the stream.)
func TestNetworkCloseFinishesStreams(t *testing.T) {
	base := runtime.NumGoroutine()
	n, a, b := pairNet(t)
	ca, err := a.Listen(4000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Listen(4001); err != nil {
		t.Fatal(err)
	}
	s := NewSession(ca, 1)
	defer s.Close()
	st := s.StartStream("b", 4001, 1000)
	for st.Sent() == 0 {
		time.Sleep(time.Millisecond)
	}
	n.Close()
	if got := st.Wait(); got == 0 || got >= 1000 {
		t.Fatalf("stream reports %d frames after early close, want partial", got)
	}
	if got := s.SendStream("b", 4001, 5); got != 0 {
		t.Fatalf("stream started on a closed network sent %d frames", got)
	}
	if err := testutil.SettleGoroutines(base, 0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestStreamNoDrift pins absolute pacing: frame i is due at start + i*20 ms,
// and on a virtual clock each payload's embedded send time is its slot.
func TestStreamNoDrift(t *testing.T) {
	clk := clock.NewFake(time.Unix(5000, 0))
	n := netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond, Clock: clk, Shards: 1})
	defer n.Close()
	a, err := n.AddHost("a", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.AddHost("b", netem.Position{X: 50})
	if err != nil {
		t.Fatal(err)
	}
	a.SetRouteProvider(directRoutes{})
	ca, err := a.Listen(4000)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Listen(4001)
	if err != nil {
		t.Fatal(err)
	}
	const frames = 50
	start := clk.Now()
	var mu sync.Mutex
	var sentAt []time.Duration // per frame, relative to start
	cb.Handle(func(dg *netem.Datagram) {
		var pkt Packet
		if err := ParseInto(&pkt, dg.Data); err != nil {
			t.Errorf("bad frame: %v", err)
			return
		}
		at, ok := pkt.SentAt()
		if !ok {
			t.Error("frame carries no send time")
			return
		}
		mu.Lock()
		sentAt = append(sentAt, at.Sub(start))
		mu.Unlock()
	})
	s := NewSession(ca, 1)
	defer s.Close()
	st := s.StartStream("b", 4001, frames)
	if got := st.Wait(); got != frames {
		t.Fatalf("sent %d, want %d", got, frames)
	}
	clk.Sleep(FrameDuration)
	mu.Lock()
	defer mu.Unlock()
	if len(sentAt) != frames {
		t.Fatalf("received %d of %d", len(sentAt), frames)
	}
	for i, at := range sentAt {
		if slot := time.Duration(i) * FrameDuration; at != slot {
			t.Errorf("frame %d sent at +%v, want its slot +%v", i, at, slot)
		}
	}
}

// TestPacerAdapter pins the contract bench/layers.go relies on: a task fires
// at its deadline and then at the previous deadline plus what fire returned —
// so one scheduled 25 ms in the past catches up instead of drifting — its
// stopped hook runs once fire reports done, and Close stops a task that is
// still queued.
func TestPacerAdapter(t *testing.T) {
	clk := clock.NewFake(time.Unix(5000, 0))
	p := NewPacer(clk)
	start := clk.Now()
	var firedAt []time.Duration
	done := make(chan struct{})
	p.Schedule(NewTask(func() (time.Duration, bool) {
		firedAt = append(firedAt, clk.Now().Sub(start))
		return 20 * time.Millisecond, len(firedAt) < 3
	}, func() { close(done) }), start.Add(-25*time.Millisecond))
	parked := make(chan struct{})
	p.Schedule(NewTask(func() (time.Duration, bool) { return 0, false }, func() { close(parked) }), start.Add(time.Hour))
	finished := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	clk.Sleep(time.Second)
	if !finished() {
		t.Fatalf("task stalled after firings at %v", firedAt)
	}
	// Due at -25 ms, -5 ms and +15 ms: the late firings run at once and
	// do not push the third back.
	if want := []time.Duration{0, 0, 15 * time.Millisecond}; !reflect.DeepEqual(firedAt, want) {
		t.Fatalf("fired at %v, want %v", firedAt, want)
	}
	p.Close()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not stop the queued task")
	}
	stoppedNow := make(chan struct{})
	p.Schedule(NewTask(func() (time.Duration, bool) { return 0, false }, func() { close(stoppedNow) }), clk.Now())
	<-stoppedNow
}

// TestSendStreamPacesOnFakeClock checks the blocking wrapper on a fake clock:
// n frames take exactly (n-1) frame intervals.
func TestSendStreamPacesOnFakeClock(t *testing.T) {
	clk := clock.NewFake(time.Unix(5000, 0))
	n := netem.NewNetwork(netem.Config{BaseDelay: 100 * time.Microsecond, Clock: clk})
	defer n.Close()
	a, err := n.AddHost("a", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.AddHost("b", netem.Position{X: 50})
	if err != nil {
		t.Fatal(err)
	}
	a.SetRouteProvider(directRoutes{})
	b.SetRouteProvider(directRoutes{})
	ca, err := a.Listen(4000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Listen(4001); err != nil {
		t.Fatal(err)
	}
	s := NewSession(ca, 1)
	defer s.Close()
	const frames = 10
	start := clk.Now()
	if got := s.SendStream("b", 4001, frames); got != frames {
		t.Fatalf("sent %d, want %d", got, frames)
	}
	if got, want := clk.Now().Sub(start), (frames-1)*FrameDuration; got != want {
		t.Fatalf("%d frames took %v, want %v", frames, got, want)
	}
}
