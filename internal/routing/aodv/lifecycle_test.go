package aodv

import (
	"runtime"
	"testing"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/testutil"
)

// TestStopFailsPendingDiscoveriesOnce stops a protocol while two route
// discoveries are between retries: every RequestRoute callback, the ones
// that joined a discovery already under way included, is called exactly once
// with false, from Stop itself; the retry steps still queued then fire into
// a stopped protocol and send nothing; and nothing is left running.
func TestStopFailsPendingDiscoveriesOnce(t *testing.T) {
	baseline := runtime.NumGoroutine()
	fake := clock.NewFake(time.Unix(3_000_000, 0))
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

	// Callbacks run on this goroutine (Stop's) or not at all, so plain
	// counters do.
	var calls, successes [3]int
	done := func(i int) func(bool) {
		return func(ok bool) {
			calls[i]++
			if ok {
				successes[i]++
			}
		}
	}
	p.RequestRoute("ghost", done(0))
	p.RequestRoute("ghost", done(1)) // joins the first
	p.RequestRoute("wraith", done(2))

	// Into the schedule: both discoveries have retried once.
	plan := cfg.attemptPlan()
	fake.Sleep(plan[0].timeout)
	if p.Stats().RREQSent < 4 {
		t.Fatalf("discoveries never retried: %+v", p.Stats())
	}
	if calls != [3]int{} {
		t.Fatalf("callbacks ran before the discoveries ended: %v", calls)
	}

	p.Stop()
	if calls != [3]int{1, 1, 1} || successes != [3]int{} {
		t.Fatalf("after Stop: calls %v successes %v, want one failure each", calls, successes)
	}
	stopped := p.Stats()
	if stopped.Failed != 2 {
		t.Fatalf("Failed = %d, want 2 discoveries", stopped.Failed)
	}

	// The retry steps armed before Stop come due, and so would every HELLO.
	fake.Sleep(3 * time.Duration(len(plan)) * cfg.DiscoveryTimeout)
	if got := p.Stats(); got != stopped {
		t.Fatalf("stopped protocol kept working: %+v, was %+v", got, stopped)
	}
	if calls != [3]int{1, 1, 1} {
		t.Fatalf("a late retry step called back again: %v", calls)
	}
	p.RequestRoute("ghost", done(0))
	if calls[0] != 2 || successes[0] != 0 {
		t.Fatal("RequestRoute on a stopped protocol must fail at once")
	}

	net.Close()
	if err := testutil.SettleGoroutines(baseline, 0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}
