package olsr

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/testutil"
)

// TestStopDuringRouteWaitAndHoldDown stops a protocol with a RequestRoute
// convergence wait polling and a recompute hold-down window open with a
// trailing recompute queued. The wait ends with one false callback, the
// window closes without recomputing, neither re-arms, and once the beats'
// last deadlines have passed the scheduler holds no task of this protocol:
// nothing is left that could touch the route table.
func TestStopDuringRouteWaitAndHoldDown(t *testing.T) {
	baseline := runtime.NumGoroutine()
	fake := clock.NewFake(time.Unix(4_000_000, 0))
	net := netem.NewNetwork(netem.Config{Clock: fake, Shards: 1})
	h, err := net.AddHost("solo", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := SimConfig()
	p := New(h, cfg)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}

	var calls, successes atomic.Int32 // the callback runs on a shard worker
	p.RequestRoute("ghost", func(ok bool) {
		calls.Add(1)
		if ok {
			successes.Add(1)
		}
	})
	p.scheduleRecompute() // recomputes and opens the hold-down window
	p.scheduleRecompute() // queues the trailing recompute
	p.mu.Lock()
	hold, queued := p.recomputeHold, p.recomputeQueued
	p.mu.Unlock()
	if !hold || !queued {
		t.Fatalf("hold-down not armed: hold=%v queued=%v", hold, queued)
	}

	p.Stop()
	stopped, routes := p.Stats(), p.Routes()

	// Past the hold-down window, the poll interval, both beats and the whole
	// RouteWait.
	fake.Sleep(2*cfg.TCInterval + cfg.RouteWait)
	if calls.Load() != 1 || successes.Load() != 0 {
		t.Fatalf("route wait after Stop: %d callbacks, %d successes, want one failure", calls.Load(), successes.Load())
	}
	if got := p.Stats(); got != stopped {
		t.Fatalf("stopped protocol kept working: %+v, was %+v", got, stopped)
	}
	if got := p.Routes(); !reflect.DeepEqual(got, routes) {
		t.Fatalf("route table changed after Stop: %v, was %v", got, routes)
	}
	if n := h.Sched().Pending(); n != 0 {
		t.Fatalf("%d tasks still queued for a stopped protocol", n)
	}
	p.mu.Lock()
	hold = p.recomputeHold
	p.mu.Unlock()
	if hold {
		t.Fatal("hold-down window never closed")
	}

	net.Close()
	if err := testutil.SettleGoroutines(baseline, 0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}
