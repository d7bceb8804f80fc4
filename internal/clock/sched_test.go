package clock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitCount polls until the counter reaches want or the (real-time) timeout
// expires. Scheduler workers process fake-clock firings asynchronously, so
// assertions after Advance must wait for the worker to catch up.
func waitCount(t *testing.T, c *atomic.Int64, want int64, msg string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if c.Load() >= want {
			if got := c.Load(); got != want {
				t.Fatalf("%s: count %d, want %d", msg, got, want)
			}
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("%s: count %d, want %d (timeout)", msg, c.Load(), want)
}

// settle gives the worker a moment to process anything outstanding, then
// asserts the counter did NOT move past want.
func settle(t *testing.T, c *atomic.Int64, want int64, msg string) {
	t.Helper()
	time.Sleep(20 * time.Millisecond)
	if got := c.Load(); got != want {
		t.Fatalf("%s: count %d, want %d", msg, got, want)
	}
}

func TestSchedulerEveryFake(t *testing.T) {
	clk := NewFake(time.Unix(0, 0))
	s := NewScheduler(clk, 1)
	defer s.Close()

	var fired atomic.Int64
	task := s.Every("node-a", 10*time.Millisecond, func(time.Time) { fired.Add(1) })

	settle(t, &fired, 0, "before first interval")
	for i := 1; i <= 3; i++ {
		clk.Advance(10 * time.Millisecond)
		waitCount(t, &fired, int64(i), "after advance")
	}

	task.Stop()
	clk.Advance(50 * time.Millisecond)
	settle(t, &fired, 3, "after Stop")
}

func TestSchedulerAfterFiresOnce(t *testing.T) {
	clk := NewFake(time.Unix(0, 0))
	s := NewScheduler(clk, 1)
	defer s.Close()

	var fired atomic.Int64
	s.After("node-a", 5*time.Millisecond, func(time.Time) { fired.Add(1) })

	clk.Advance(5 * time.Millisecond)
	waitCount(t, &fired, 1, "one-shot fire")
	clk.Advance(50 * time.Millisecond)
	settle(t, &fired, 1, "one-shot must not re-fire")
}

func TestSchedulerStopBeforeDue(t *testing.T) {
	clk := NewFake(time.Unix(0, 0))
	s := NewScheduler(clk, 1)
	defer s.Close()

	var fired atomic.Int64
	task := s.After("node-a", 5*time.Millisecond, func(time.Time) { fired.Add(1) })
	task.Stop()
	clk.Advance(50 * time.Millisecond)
	settle(t, &fired, 0, "stopped task must not fire")
}

func TestSchedulerEqualDeadlineOrder(t *testing.T) {
	clk := NewFake(time.Unix(0, 0))
	s := NewScheduler(clk, 1)
	defer s.Close()

	var mu sync.Mutex
	var order []int
	var fired atomic.Int64
	for i := 0; i < 3; i++ {
		i := i
		s.After("same-key", 5*time.Millisecond, func(time.Time) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			fired.Add(1)
		})
	}
	clk.Advance(5 * time.Millisecond)
	waitCount(t, &fired, 3, "all three fire")
	mu.Lock()
	defer mu.Unlock()
	for i, got := range order {
		if got != i {
			t.Fatalf("equal-deadline tasks fired out of registration order: %v", order)
		}
	}
}

func TestSchedulerShardClamp(t *testing.T) {
	clk := NewFake(time.Unix(0, 0))
	maxp := runtime.GOMAXPROCS(0)
	for _, req := range []int{0, -1, 1, 4, 1024} {
		s := NewScheduler(clk, req)
		got := s.Shards()
		if got < 1 || got > maxp {
			t.Fatalf("NewScheduler(%d): shards %d outside [1, GOMAXPROCS=%d]", req, got, maxp)
		}
		if req >= 1 && req <= maxp && got != req {
			t.Fatalf("NewScheduler(%d): shards %d, want %d", req, got, req)
		}
		s.Close()
	}
}

func TestSchedulerSameKeySameShard(t *testing.T) {
	clk := NewFake(time.Unix(0, 0))
	s := NewScheduler(clk, 0)
	defer s.Close()
	a := s.shardFor("node-17")
	for i := 0; i < 8; i++ {
		if s.shardFor("node-17") != a {
			t.Fatal("shardFor is not stable for a fixed key")
		}
	}
}

func TestSchedulerSystemClock(t *testing.T) {
	s := NewScheduler(New(), 2)
	var fired atomic.Int64
	s.Every("n", time.Millisecond, func(time.Time) { fired.Add(1) })
	deadline := time.Now().Add(2 * time.Second)
	for fired.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if fired.Load() < 3 {
		t.Fatalf("recurring task fired %d times in 2s on the system clock", fired.Load())
	}
	s.Close()
	after := fired.Load()
	time.Sleep(10 * time.Millisecond)
	if fired.Load() != after {
		t.Fatal("task fired after Close")
	}
}

func TestSchedulerPending(t *testing.T) {
	clk := NewFake(time.Unix(0, 0))
	s := NewScheduler(clk, 1)
	defer s.Close()
	if got := s.Pending(); got != 0 {
		t.Fatalf("fresh scheduler Pending = %d", got)
	}
	s.After("a", time.Hour, func(time.Time) {})
	s.Every("b", time.Hour, func(time.Time) {})
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
}

// TestSchedulerWakeupAllocFree pins a shard worker's wait for the next
// deadline at zero allocations: it re-arms the one timer it owns.
func TestSchedulerWakeupAllocFree(t *testing.T) {
	s := NewScheduler(New(), 1)
	defer s.Close()
	tick := make(chan struct{}, 1)
	s.Every("n", 200*time.Microsecond, func(time.Time) {
		select {
		case tick <- struct{}{}:
		default:
		}
	})
	<-tick // the worker's first wait creates its timer
	if allocs := testing.AllocsPerRun(100, func() { <-tick }); allocs != 0 {
		t.Errorf("%v allocations per shard wake-up, want 0", allocs)
	}
}

// TestTaskRearmAllocFree pins what a paced stream or a pooled delivery pays
// per firing: a caller-owned Task re-armed from its own callback at an
// absolute deadline allocates nothing, on either clock.
func TestTaskRearmAllocFree(t *testing.T) {
	rearming := func(s *Scheduler, start time.Time, step time.Duration) chan struct{} {
		tick := make(chan struct{}, 1)
		var task Task
		due := start
		task.Init(func(time.Time) {
			select {
			case tick <- struct{}{}:
			default:
			}
			due = due.Add(step)
			s.At("n", &task, due)
		}, nil)
		s.At("n", &task, due)
		return tick
	}

	sys := NewScheduler(New(), 1)
	defer sys.Close()
	tick := rearming(sys, time.Now(), 200*time.Microsecond)
	<-tick
	<-tick // the worker's first wait creates its timer
	if allocs := testing.AllocsPerRun(100, func() { <-tick }); allocs != 0 {
		t.Errorf("system clock: %v allocations per re-armed firing, want 0", allocs)
	}

	clk := NewFake(time.Unix(0, 0))
	fake := NewScheduler(clk, 1)
	defer fake.Close()
	tick = rearming(fake, clk.Now(), time.Second)
	<-tick
	step := func() {
		for clk.PendingTimers() == 0 { // until the worker has re-armed its timer
			runtime.Gosched()
		}
		clk.Advance(time.Second)
		<-tick
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("fake clock: %v allocations per re-armed firing, want 0", allocs)
	}
}

// TestTaskAbsoluteDeadlineNoDrift re-arms a task at due+interval while the
// clock is stepped coarsely: firing i is due at start+i*interval however late
// firing i-1 ran, so the 50th lands within one step of start+49*interval.
// Every's Now()+interval re-arm would have drifted a step per firing.
func TestTaskAbsoluteDeadlineNoDrift(t *testing.T) {
	clk := NewFake(time.Unix(0, 0))
	s := NewScheduler(clk, 1)
	defer s.Close()
	const (
		interval = 20 * time.Millisecond
		step     = 33 * time.Millisecond
		firings  = 50
	)
	start := clk.Now()
	var fired atomic.Int64
	var lastAt atomic.Int64
	var task Task
	due := start
	task.Init(func(now time.Time) {
		lastAt.Store(int64(now.Sub(start)))
		due = due.Add(interval)
		if fired.Add(1) < firings {
			s.At("n", &task, due)
		}
	}, nil)
	s.At("n", &task, due)
	deadline := time.Now().Add(5 * time.Second)
	for fired.Load() < firings {
		if time.Now().After(deadline) {
			t.Fatalf("fired %d of %d", fired.Load(), firings)
		}
		if clk.PendingTimers() == 0 { // the worker has not parked on its timer yet
			runtime.Gosched()
			continue
		}
		clk.Advance(step)
	}
	want := time.Duration(firings-1) * interval
	if got := time.Duration(lastAt.Load()); got < want || got >= want+step {
		t.Fatalf("firing %d ran at +%v, want within one %v step of +%v", firings, got, step, want)
	}
}

// TestSchedulerCloseDropsQueued: a task still queued when the scheduler
// closes, and one queued after it closed, run their dropped hook instead of
// their callback; a stopped one's hook runs too (it is how a waiter is freed).
func TestSchedulerCloseDropsQueued(t *testing.T) {
	clk := NewFake(time.Unix(0, 0))
	s := NewScheduler(clk, 2)
	var ran, dropped atomic.Int64
	var queued, late Task
	queued.Init(func(time.Time) { ran.Add(1) }, func() { dropped.Add(1) })
	late.Init(func(time.Time) { ran.Add(1) }, func() { dropped.Add(1) })
	s.At("a", &queued, clk.Now().Add(time.Hour))
	s.After("b", time.Hour, func(time.Time) { ran.Add(1) }) // no hook: just dropped
	s.Close()
	if got := dropped.Load(); got != 1 {
		t.Fatalf("dropped hooks run at Close = %d, want 1", got)
	}
	s.At("a", &late, clk.Now())
	if got := dropped.Load(); got != 2 {
		t.Fatalf("dropped hooks after At on a closed scheduler = %d, want 2", got)
	}
	s.Close() // idempotent
	if ran.Load() != 0 {
		t.Fatalf("%d callbacks ran, want 0", ran.Load())
	}
}
