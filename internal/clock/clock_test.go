package clock

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

var epoch = time.Date(2007, 11, 26, 0, 0, 0, 0, time.UTC) // MNCNA'07 day

func TestFakeNowAdvance(t *testing.T) {
	f := NewFake(epoch)
	if got := f.Now(); !got.Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", got, epoch)
	}
	f.Sleep(90 * time.Second)
	if got, want := f.Now(), epoch.Add(90*time.Second); !got.Equal(want) {
		t.Fatalf("Now() after Sleep = %v, want %v", got, want)
	}
}

// TestFakeTimerFiresAtDeadline: a wait nothing releases ends at its timeout,
// to the nanosecond.
func TestFakeTimerFiresAtDeadline(t *testing.T) {
	f := NewFake(epoch)
	var never Gate
	never.Init(f)
	if got := Wait("timed out", 10*time.Second, &never); got != -1 {
		t.Fatalf("Wait = %d, want -1 (timeout)", got)
	}
	if got, want := f.Now(), epoch.Add(10*time.Second); !got.Equal(want) {
		t.Fatalf("timed-out waiter resumed at %v, want %v", got, want)
	}
}

// TestFakeTimerOrdering: tasks on two shards run in deadline order, each at
// its own instant.
func TestFakeTimerOrdering(t *testing.T) {
	f := NewFake(epoch)
	s := NewScheduler(f, 2)
	defer s.Close()
	var mu sync.Mutex
	var ran []time.Duration
	for i, d := range []time.Duration{3 * time.Second, time.Second, 2 * time.Second} {
		s.After(string(rune('a'+i)), d, func(now time.Time) {
			mu.Lock()
			ran = append(ran, now.Sub(epoch))
			mu.Unlock()
		})
	}
	f.Sleep(5 * time.Second)
	if want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}; !slices.Equal(ran, want) {
		t.Fatalf("ran at %v, want %v", ran, want)
	}
}

// TestFakeStopPreventsFire: neither a stopped nor a cancelled task runs when
// the clock passes its deadline.
func TestFakeStopPreventsFire(t *testing.T) {
	f := NewFake(epoch)
	s := NewScheduler(f, 1)
	defer s.Close()
	s.After("n", time.Second, func(time.Time) { t.Error("a stopped task ran") }).Stop()
	var cancelled Task
	cancelled.Init(func(time.Time) { t.Error("a cancelled task ran") }, nil)
	s.At("n", &cancelled, f.Now().Add(time.Second))
	if !s.Cancel("n", &cancelled) {
		t.Fatal("Cancel of a queued task = false")
	}
	f.Sleep(2 * time.Second)
	if st := s.Stats(); st.Runs != 0 {
		t.Fatalf("%d runs, want 0", st.Runs)
	}
}

// TestFakeZeroDurationFiresImmediately: a sleep or a wait of zero returns at
// once, at the same instant.
func TestFakeZeroDurationFiresImmediately(t *testing.T) {
	f := NewFake(epoch)
	var never Gate
	never.Init(f)
	f.Sleep(0)
	if got := Wait("zero", 0, &never); got != -1 {
		t.Fatalf("Wait(0) = %d, want -1", got)
	}
	if got := f.Now(); !got.Equal(epoch) {
		t.Fatalf("Now() = %v after zero waits, want %v", got, epoch)
	}
}

// TestFakeSet: the clock never runs backwards. A negative sleep returns at
// once, and a task queued in the past runs at the present.
func TestFakeSet(t *testing.T) {
	f := NewFake(epoch)
	s := NewScheduler(f, 1)
	defer s.Close()
	f.Sleep(-time.Minute)
	var at time.Time
	s.After("n", -time.Hour, func(now time.Time) { at = now })
	f.Sleep(0)
	if got := f.Now(); !got.Equal(epoch) || !at.Equal(epoch) {
		t.Fatalf("Now() = %v, task ran at %v; want both %v", got, at, epoch)
	}
}

// TestFakeTimerReset: from whatever state a task is in, At leaves it as a
// fresh queuing would — it runs once, at the new deadline.
func TestFakeTimerReset(t *testing.T) {
	states := []struct {
		name    string
		prepare func(f *Fake, s *Scheduler, task *Task)
	}{
		{"pending", func(f *Fake, s *Scheduler, task *Task) { s.At("n", task, f.Now().Add(time.Minute)) }},
		{"fired_and_drained", func(f *Fake, s *Scheduler, task *Task) {
			s.At("n", task, f.Now().Add(time.Second))
			f.Sleep(time.Second)
		}},
		// Popped for a batch and moved by an earlier task of that batch
		// before its turn.
		{"fired_and_undrained", func(f *Fake, s *Scheduler, task *Task) {
			due := f.Now().Add(time.Second)
			s.After("n", time.Second, func(time.Time) { s.At("n", task, f.Now().Add(10*time.Second)) })
			s.At("n", task, due)
			f.Sleep(time.Second)
		}},
		{"stopped", func(f *Fake, s *Scheduler, task *Task) {
			s.At("n", task, f.Now().Add(time.Minute))
			s.Cancel("n", task)
		}},
	}
	for _, st := range states {
		t.Run(st.name, func(t *testing.T) {
			f := NewFake(epoch)
			s := NewScheduler(f, 1)
			defer s.Close()
			var runs []time.Time
			var task Task
			task.Init(func(now time.Time) { runs = append(runs, now) }, nil)
			st.prepare(f, s, &task)
			before := len(runs)
			want := f.Now().Add(10 * time.Second)
			s.At("n", &task, want)
			f.Sleep(time.Minute)
			if got := runs[before:]; len(got) != 1 || !got[0].Equal(want) {
				t.Fatalf("ran at %v after the re-arm, want once at %v", got, want)
			}
		})
	}
}

// TestFakeTimerResetTieOrder: tasks due at one instant run in the order they
// were queued, and a task moved there queues behind those already due then —
// exactly where cancelling it and queuing it afresh would. The event-loop
// goldens rest on this.
func TestFakeTimerResetTieOrder(t *testing.T) {
	order := func(rearm func(s *Scheduler, a *Task, due time.Time)) string {
		f := NewFake(epoch)
		s := NewScheduler(f, 1)
		defer s.Close()
		due := f.Now().Add(5 * time.Second)
		var got []byte
		tasks := map[byte]*Task{}
		for _, name := range []byte("abc") {
			tasks[name] = new(Task)
			tasks[name].Init(func(time.Time) { got = append(got, name) }, nil)
		}
		s.At("n", tasks['a'], due)
		s.At("n", tasks['b'], due)
		rearm(s, tasks['a'], due)
		s.At("n", tasks['c'], due)
		f.Sleep(5 * time.Second)
		return string(got)
	}
	viaAt := order(func(s *Scheduler, a *Task, due time.Time) { s.At("n", a, due) })
	viaCancel := order(func(s *Scheduler, a *Task, due time.Time) { s.Cancel("n", a); s.At("n", a, due) })
	if viaAt != "bac" || viaCancel != "bac" {
		t.Fatalf("run order: moved %q, cancelled and queued again %q, want \"bac\"", viaAt, viaCancel)
	}
}

func TestSystemClockMonotone(t *testing.T) {
	c := New()
	a := c.Now()
	c.Sleep(time.Millisecond)
	if b := c.Now(); !b.After(a) {
		t.Fatalf("system clock did not advance: %v then %v", a, b)
	}
}

// TestSystemTimerReset: the system clock's time.Timer alarm, fired and never
// waited on, delivers no stale wake-up once re-armed (go 1.23+ timer
// channels), and then fires once at the new deadline.
func TestSystemTimerReset(t *testing.T) {
	a := newTimerAlarm()
	defer a.close()
	a.arm(time.Now().Add(time.Millisecond))
	time.Sleep(5 * time.Millisecond) // fired; never waited on
	a.arm(time.Now().Add(time.Hour))
	woke := make(chan bool, 1)
	go func() { woke <- a.wait() }()
	select {
	case <-woke:
		t.Fatal("stale wake-up after a re-arm")
	case <-time.After(20 * time.Millisecond):
	}
	a.arm(time.Now().Add(time.Millisecond))
	select {
	case ok := <-woke:
		if !ok {
			t.Fatal("wait reported the alarm closed")
		}
	case <-time.After(time.Second):
		t.Fatal("the re-armed alarm never fired")
	}
}

// TestRearmAllocFree pins what a wait on the fake clock pays once the clock
// has parked a goroutine before: nothing, the worker's wake-ups included.
func TestRearmAllocFree(t *testing.T) {
	f := NewFake(epoch)
	s := NewScheduler(f, 1)
	defer s.Close()
	s.Every("n", 100*time.Millisecond, func(time.Time) {})
	var never Gate
	never.Init(f)
	f.Sleep(time.Second)
	if allocs := testing.AllocsPerRun(100, func() {
		f.Sleep(time.Second)
		Wait("rearm", time.Second, &never)
	}); allocs != 0 {
		t.Errorf("%v allocations per fake-clock wait, want 0", allocs)
	}
}

// TestTaskSeesOneInstant: a task that reads Now before and after CPU-bound
// work sees one instant, although the test body is parked on a later
// deadline the whole time.
func TestTaskSeesOneInstant(t *testing.T) {
	f := NewFake(epoch)
	s := NewScheduler(f, 1)
	defer s.Close()
	var before, after time.Time
	s.After("n", time.Second, func(now time.Time) {
		before = f.Now()
		for deadline := time.Now().Add(20 * time.Millisecond); time.Now().Before(deadline); {
		}
		after = f.Now()
	})
	f.Sleep(time.Hour)
	if want := epoch.Add(time.Second); !before.Equal(want) || !after.Equal(want) {
		t.Fatalf("task read Now() = %v then %v, want %v both times", before, after, want)
	}
}

// TestWaitResumesAtRelease: a waiter released by a task at T resumes with
// Now() == T, and a wait on a gate already open returns at once.
func TestWaitResumesAtRelease(t *testing.T) {
	f := NewFake(epoch)
	s := NewScheduler(f, 2)
	defer s.Close()
	var g Gate
	g.Init(f)
	s.After("n", 5*time.Second, func(time.Time) { g.Open() })
	if got := Wait("released", time.Minute, &g); got != 0 {
		t.Fatalf("Wait = %d, want 0 (the gate)", got)
	}
	if got, want := f.Now(), epoch.Add(5*time.Second); !got.Equal(want) {
		t.Fatalf("released waiter resumed at %v, want %v", got, want)
	}
	var never Gate
	never.Init(f)
	if got := Wait("open", -1, &never, &g); got != 1 {
		t.Fatalf("Wait on an open gate = %d, want 1", got)
	}
}

// TestVirtualTimeDeterministic: two shards that hand work to each other plus
// a sleeping test body give the same (instant, task) log on every run. Runs
// at one instant on different shards are concurrent, so each instant's
// entries are compared as a set.
func TestVirtualTimeDeterministic(t *testing.T) {
	run := func() []string {
		f := NewFake(epoch)
		s := NewScheduler(f, 2)
		defer s.Close()
		var mu sync.Mutex
		var log []string
		note := func(who string) {
			mu.Lock()
			log = append(log, f.Now().Sub(epoch).String()+" "+who)
			mu.Unlock()
		}
		for _, key := range []string{"a", "b"} {
			other := map[string]string{"a": "b", "b": "a"}[key]
			s.Every(key, 3*time.Millisecond, func(time.Time) {
				note(key)
				s.After(other, time.Millisecond, func(time.Time) { note(key + "->" + other) })
			})
		}
		for range 20 {
			f.Sleep(2 * time.Millisecond)
			note("body")
		}
		mu.Lock()
		defer mu.Unlock()
		// Entries start with their instant, so a sort keeps instants in
		// order and orders the entries within one.
		slices.Sort(log)
		return log
	}
	want := run()
	if len(want) < 60 {
		t.Fatalf("only %d log entries", len(want))
	}
	for i := range 50 {
		if got := run(); !slices.Equal(got, want) {
			t.Fatalf("run %d: log differs:\n%v\nwant\n%v", i, got, want)
		}
	}
}

// TestWaitOnClosedScheduler: a wait whose release is a queued task returns
// when the scheduler closes, through the task's dropped hook, and a sleep on
// a clock whose only scheduler is closed still returns.
func TestWaitOnClosedScheduler(t *testing.T) {
	f := NewFake(epoch)
	s := NewScheduler(f, 2)
	s.Close()
	var g Gate
	g.Init(f)
	var task Task
	task.Init(func(time.Time) { t.Error("a task ran on a closed scheduler") }, g.Open)
	s.At("n", &task, f.Now().Add(time.Hour))
	if got := Wait("closed", -1, &g); got != 0 {
		t.Fatalf("Wait = %d, want 0", got)
	}
	f.Sleep(time.Hour)
	if got, want := f.Now(), epoch.Add(time.Hour); !got.Equal(want) {
		t.Fatalf("Now() = %v after a sleep, want %v", got, want)
	}
}

// TestStuckWaitPanics: with every worker parked and nothing queued, a wait
// without a deadline can never return; the clock panics and names it.
func TestStuckWaitPanics(t *testing.T) {
	f := NewFake(epoch)
	s := NewScheduler(f, 1)
	defer s.Close()
	var g Gate
	g.Init(f)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "test.stuck") {
			t.Fatalf("recovered %q, want a panic naming the wait", msg)
		}
	}()
	Wait("test.stuck", -1, &g)
	t.Fatal("a wait nothing can release returned")
}
