package clock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"
)

// expect fails the test unless the counter reads want.
func expect(t *testing.T, c *atomic.Int64, want int64, msg string) {
	t.Helper()
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

	clk.Sleep(10*time.Millisecond - 1)
	expect(t, &fired, 0, "before first interval")
	for i := 1; i <= 3; i++ {
		clk.Sleep(10 * time.Millisecond)
		expect(t, &fired, int64(i), "after an interval")
	}

	task.Stop()
	clk.Sleep(50 * time.Millisecond)
	expect(t, &fired, 3, "after Stop")
}

func TestSchedulerAfterFiresOnce(t *testing.T) {
	clk := NewFake(time.Unix(0, 0))
	s := NewScheduler(clk, 1)
	defer s.Close()

	var fired atomic.Int64
	s.After("node-a", 5*time.Millisecond, func(time.Time) { fired.Add(1) })

	clk.Sleep(5 * time.Millisecond)
	expect(t, &fired, 1, "one-shot fire")
	clk.Sleep(50 * time.Millisecond)
	expect(t, &fired, 1, "one-shot must not re-fire")
}

func TestSchedulerStopBeforeDue(t *testing.T) {
	clk := NewFake(time.Unix(0, 0))
	s := NewScheduler(clk, 1)
	defer s.Close()

	var fired atomic.Int64
	task := s.After("node-a", 5*time.Millisecond, func(time.Time) { fired.Add(1) })
	task.Stop()
	clk.Sleep(50 * time.Millisecond)
	expect(t, &fired, 0, "stopped task must not fire")
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
	clk.Sleep(5 * time.Millisecond)
	expect(t, &fired, 3, "all three fire")
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

// timerClock is the system clock behind the alarm every OS without a timerfd
// gives it, a time.Timer: newAlarm picks the timerfd for System itself, and
// this is another type.
type timerClock struct{ System }

// realClocks are the system clock with each alarm it can get.
var realClocks = []struct {
	name string
	clk  Clock
}{{"system", New()}, {"system-timer", timerClock{}}}

// waitParked waits until sh's worker has parked on its alarm.
func waitParked(t *testing.T, sh *schedShard) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		sh.mu.Lock()
		parked := sh.parked
		sh.mu.Unlock()
		if parked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never parked")
		}
	}
}

// TestSchedulerWakeupAllocFree pins a shard worker's wait for the next
// deadline at zero allocations, telemetry included, with either alarm: it
// re-arms the one alarm its shard owns.
func TestSchedulerWakeupAllocFree(t *testing.T) {
	for _, c := range realClocks {
		s := NewScheduler(c.clk, 1)
		tick := make(chan struct{}, 1)
		s.Every("n", 200*time.Microsecond, func(time.Time) {
			select {
			case tick <- struct{}{}:
			default:
			}
		})
		<-tick
		if allocs := testing.AllocsPerRun(100, func() { <-tick }); allocs != 0 {
			t.Errorf("%s: %v allocations per shard wake-up, want 0", c.name, allocs)
		}
		s.Close()
	}
}

// TestSchedulerStats: on a Fake clock, which stops at every deadline, every
// run is one wake-up and 0 µs late; a task queued 5 ms in the past shows up in
// the lag histogram as 5 ms late; reading the counters allocates nothing.
func TestSchedulerStats(t *testing.T) {
	clk := NewFake(time.Unix(0, 0))
	s := NewScheduler(clk, 1)
	defer s.Close()
	var fired atomic.Int64
	s.Every("n", 10*time.Millisecond, func(time.Time) { fired.Add(1) })
	clk.Sleep(35 * time.Millisecond)
	st := s.Stats()
	if st.Runs != 3 || st.Wakeups != 3 || st.Lag[0] != 3 {
		t.Fatalf("after three deadlines: runs %d, wake-ups %d, Lag[0] %d; want 3, 3, 3", st.Runs, st.Wakeups, st.Lag[0])
	}
	var late Task
	late.Init(func(time.Time) {}, nil)
	s.At("n", &late, clk.Now().Add(-5*time.Millisecond)) // [4096, 8192) µs late
	clk.Sleep(0)
	if st = s.Stats(); st.Lag[13] != 1 || st.Lag[0] != 3 {
		t.Fatalf("a run 5 ms late: Lag[13] = %d, Lag[0] = %d; want 1, 3", st.Lag[13], st.Lag[0])
	}
	if allocs := testing.AllocsPerRun(100, func() { st = s.Stats() }); allocs != 0 {
		t.Errorf("%v allocations per Stats, want 0", allocs)
	}
}

// TestSchedulerReapsStoppedHead: the only queued task, due in an hour, is
// stopped; the next worker pass drops it from the heap instead of setting
// the alarm for it, so the worker does not wake at its deadline.
func TestSchedulerReapsStoppedHead(t *testing.T) {
	clk := NewFake(time.Unix(0, 0))
	s := NewScheduler(clk, 1)
	defer s.Close()
	s.After("n", time.Hour, func(time.Time) { t.Error("a stopped task ran") }).Stop()
	var ran atomic.Int64
	s.After("n", 0, func(time.Time) { ran.Add(1) })
	clk.Sleep(0)
	expect(t, &ran, 1, "a task due now")
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending = %d after a worker pass, want 0", got)
	}
	wakeups := s.Stats().Wakeups
	clk.Sleep(2 * time.Hour)
	if got := s.Stats().Wakeups; got != wakeups {
		t.Fatalf("the worker woke %d times past a stopped task's deadline, want 0", got-wakeups)
	}
}

// TestSchedulerEarlierDeadlineRearms: a parked worker set for an hour from
// now runs a task queued two milliseconds out from another goroutine on
// time, with either alarm.
func TestSchedulerEarlierDeadlineRearms(t *testing.T) {
	for _, c := range realClocks {
		s := NewScheduler(c.clk, 1)
		s.After("n", time.Hour, func(time.Time) {})
		waitParked(t, s.shards[0])
		ran := make(chan time.Duration, 1)
		go func() {
			start := time.Now()
			s.After("n", 2*time.Millisecond, func(time.Time) { ran <- time.Since(start) })
		}()
		select {
		case took := <-ran:
			if took > 20*time.Millisecond {
				t.Errorf("%s: a task 2ms out ran after %v, want within 20ms", c.name, took)
			}
		case <-time.After(time.Second):
			t.Errorf("%s: a task 2ms out behind one an hour out never ran", c.name)
		}
		s.Close()
	}
}

// TestSchedulerCloseWakesParkedWorker: Close on a worker parked for an hour
// returns at once, and the queued task's dropped hook runs.
func TestSchedulerCloseWakesParkedWorker(t *testing.T) {
	for _, c := range realClocks {
		s := NewScheduler(c.clk, 1)
		var dropped atomic.Bool
		var task Task
		task.Init(func(time.Time) { t.Errorf("%s: a task an hour out ran", c.name) }, func() { dropped.Store(true) })
		s.At("n", &task, time.Now().Add(time.Hour))
		waitParked(t, s.shards[0])
		closed := make(chan struct{})
		go func() { s.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(time.Second):
			t.Fatalf("%s: Close on a parked worker did not return within 1s", c.name)
		}
		if !dropped.Load() {
			t.Errorf("%s: the queued task's dropped hook did not run", c.name)
		}
	}
}

// TestTaskRearmAllocFree pins what a paced stream or a pooled delivery pays
// per firing: a caller-owned Task re-armed from its own callback at an
// absolute deadline allocates nothing, with either alarm of the system clock.
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

	for _, c := range realClocks {
		sys := NewScheduler(c.clk, 1)
		tick := rearming(sys, time.Now(), 200*time.Microsecond)
		<-tick
		if allocs := testing.AllocsPerRun(100, func() { <-tick }); allocs != 0 {
			t.Errorf("%s: %v allocations per re-armed firing, want 0", c.name, allocs)
		}
		sys.Close()
	}
}

// TestTaskAbsoluteDeadlineNoDrift re-arms a task at due+interval from a first
// deadline three intervals past: the first four firings run at once, and the
// 50th still lands at start+46*interval. Every's Now()+interval re-arm would
// have carried the lateness into every later firing.
func TestTaskAbsoluteDeadlineNoDrift(t *testing.T) {
	clk := NewFake(time.Unix(0, 0))
	s := NewScheduler(clk, 1)
	defer s.Close()
	const (
		interval = 20 * time.Millisecond
		firings  = 50
	)
	start := clk.Now()
	var fired atomic.Int64
	var lastAt atomic.Int64
	var task Task
	due := start.Add(-3 * interval)
	task.Init(func(now time.Time) {
		lastAt.Store(int64(now.Sub(start)))
		due = due.Add(interval)
		if fired.Add(1) < firings {
			s.At("n", &task, due)
		}
	}, nil)
	s.At("n", &task, due)
	clk.Sleep(firings * interval)
	expect(t, &fired, firings, "firings")
	if got, want := time.Duration(lastAt.Load()), (firings-4)*interval; got != want {
		t.Fatalf("firing %d ran at +%v, want +%v", firings, got, want)
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

// TestSchedulerAtMovesQueuedTask: At on a task still queued moves it, later
// or earlier, and it runs once, at the last deadline it was given.
func TestSchedulerAtMovesQueuedTask(t *testing.T) {
	clk := NewFake(time.Unix(0, 0))
	s := NewScheduler(clk, 1)
	defer s.Close()
	var fired, at atomic.Int64
	var task Task
	task.Init(func(now time.Time) { at.Store(int64(now.Sub(time.Unix(0, 0)))); fired.Add(1) }, nil)
	start := clk.Now()
	s.At("n", &task, start.Add(10*time.Millisecond))
	s.At("n", &task, start.Add(30*time.Millisecond)) // later
	s.At("n", &task, start.Add(20*time.Millisecond)) // earlier again
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending = %d after moving one task twice, want 1", got)
	}
	clk.Sleep(10 * time.Millisecond)
	expect(t, &fired, 0, "a task moved past its first deadline")
	clk.Sleep(10 * time.Millisecond)
	expect(t, &fired, 1, "a moved task at its new deadline")
	clk.Sleep(time.Second)
	expect(t, &fired, 1, "a moved task runs once")
	if got := time.Duration(at.Load()); got != 20*time.Millisecond {
		t.Fatalf("moved task ran at +%v, want +20ms", got)
	}
}

// TestSchedulerCancel: a cancelled task does not run and no dropped hook runs
// for it at Close, Cancel reports whether there was a run to call off, and the
// task can be queued again at once.
func TestSchedulerCancel(t *testing.T) {
	clk := NewFake(time.Unix(0, 0))
	s := NewScheduler(clk, 1)
	var fired, dropped atomic.Int64
	var task Task
	task.Init(func(time.Time) { fired.Add(1) }, func() { dropped.Add(1) })
	if s.Cancel("n", &task) {
		t.Fatal("Cancel of a task never queued = true")
	}
	s.At("n", &task, clk.Now().Add(10*time.Millisecond))
	if !s.Cancel("n", &task) {
		t.Fatal("Cancel of a queued task = false")
	}
	if s.Cancel("n", &task) {
		t.Fatal("second Cancel = true")
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending = %d after Cancel, want 0", got)
	}
	clk.Sleep(10 * time.Millisecond)
	expect(t, &fired, 0, "a cancelled task")
	s.At("n", &task, clk.Now().Add(10*time.Millisecond))
	clk.Sleep(10 * time.Millisecond)
	expect(t, &fired, 1, "a task queued again after Cancel")
	if s.Cancel("n", &task) {
		t.Fatal("Cancel of a task that has run = true")
	}
	s.At("n", &task, clk.Now().Add(time.Hour))
	s.Cancel("n", &task)
	s.Close()
	if got := dropped.Load(); got != 0 {
		t.Fatalf("dropped hooks at Close for a cancelled task = %d, want 0", got)
	}
}

// TestSchedulerCancelInBatch: a task cancelled, or moved, by an earlier task
// of the batch it was popped for does not run for its old deadline.
func TestSchedulerCancelInBatch(t *testing.T) {
	clk := NewFake(time.Unix(0, 0))
	s := NewScheduler(clk, 1)
	defer s.Close()
	due := clk.Now().Add(10 * time.Millisecond)
	var fired, cancelled, moved atomic.Int64
	var first, victim, mover, target Task
	victim.Init(func(time.Time) { fired.Add(1) }, nil)
	target.Init(func(time.Time) { moved.Add(1) }, nil)
	first.Init(func(time.Time) {
		if s.Cancel("n", &victim) {
			cancelled.Add(1)
		}
	}, nil)
	mover.Init(func(time.Time) { s.At("n", &target, due.Add(time.Second)) }, nil)
	s.At("n", &first, due)
	s.At("n", &mover, due)
	s.At("n", &victim, due)
	s.At("n", &target, due)
	clk.Sleep(10 * time.Millisecond)
	expect(t, &cancelled, 1, "Cancel of a task popped but not run")
	expect(t, &fired, 0, "a task cancelled within its batch")
	expect(t, &moved, 0, "a task moved within its batch")
	clk.Sleep(time.Second)
	expect(t, &moved, 1, "a task moved within its batch, at its new deadline")
}

// TestTaskMoveAllocFree: moving a queued task and cancelling it allocate
// nothing.
func TestTaskMoveAllocFree(t *testing.T) {
	clk := NewFake(time.Unix(0, 0))
	s := NewScheduler(clk, 1)
	defer s.Close()
	var task Task
	task.Init(func(time.Time) {}, nil)
	due := clk.Now().Add(time.Hour)
	if allocs := testing.AllocsPerRun(100, func() {
		s.At("n", &task, due)
		s.At("n", &task, due.Add(time.Second))
		s.Cancel("n", &task)
	}); allocs != 0 {
		t.Fatalf("%v allocations per move and cancel, want 0", allocs)
	}
}

// TestSchedulerBatchReleasesTasks: a burst of tasks due together runs as one
// batch, and once it has run the worker holds none of them. The slice it
// reuses for its next batch is cleared, so a task's owner — a pooled frame
// delivery, say — and whatever its callback reaches can be collected, and a
// sync.Pool that holds it can let it go.
func TestSchedulerBatchReleasesTasks(t *testing.T) {
	clk := NewFake(time.Unix(0, 0))
	s := NewScheduler(clk, 1)
	defer s.Close()
	type owner struct {
		task    Task
		payload [256]byte
	}
	const burst = 1000
	owners := make([]weak.Pointer[owner], burst)
	var ran atomic.Int64
	due := clk.Now().Add(time.Millisecond)
	for i := range owners {
		o := new(owner)
		o.task.Init(func(time.Time) { o.payload[0]++; ran.Add(1) }, nil)
		s.At("n", &o.task, due)
		owners[i] = weak.Make(o)
	}
	clk.Sleep(time.Second)
	expect(t, &ran, burst, "the burst")
	runtime.GC()
	runtime.GC()
	held := 0
	for _, w := range owners {
		if w.Value() != nil {
			held++
		}
	}
	if held > 0 {
		t.Fatalf("%d of %d tasks still reachable after their batch ran", held, burst)
	}
}
