package clock

import (
	"reflect"
	"testing"
	"time"
)

var epoch = time.Date(2007, 11, 26, 0, 0, 0, 0, time.UTC) // MNCNA'07 day

func TestFakeNowAdvance(t *testing.T) {
	f := NewFake(epoch)
	if got := f.Now(); !got.Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", got, epoch)
	}
	f.Advance(90 * time.Second)
	if got, want := f.Now(), epoch.Add(90*time.Second); !got.Equal(want) {
		t.Fatalf("Now() after Advance = %v, want %v", got, want)
	}
}

func TestFakeTimerFiresAtDeadline(t *testing.T) {
	f := NewFake(epoch)
	tm := f.NewTimer(10 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("timer fired before Advance")
	default:
	}
	f.Advance(9 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("timer fired too early")
	default:
	}
	f.Advance(1 * time.Second)
	select {
	case at := <-tm.C():
		if want := epoch.Add(10 * time.Second); !at.Equal(want) {
			t.Fatalf("fired at %v, want %v", at, want)
		}
	default:
		t.Fatal("timer did not fire at deadline")
	}
}

func TestFakeTimerOrdering(t *testing.T) {
	f := NewFake(epoch)
	t1 := f.NewTimer(3 * time.Second)
	t2 := f.NewTimer(1 * time.Second)
	t3 := f.NewTimer(2 * time.Second)
	f.Advance(5 * time.Second)
	at1, at2, at3 := <-t1.C(), <-t2.C(), <-t3.C()
	if !at2.Before(at3) || !at3.Before(at1) {
		t.Fatalf("firing order wrong: t1=%v t2=%v t3=%v", at1, at2, at3)
	}
}

func TestFakeStopPreventsFire(t *testing.T) {
	f := NewFake(epoch)
	tm := f.NewTimer(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop() = false for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true")
	}
	f.Advance(2 * time.Second)
	select {
	case <-tm.C():
		t.Fatal("stopped timer fired")
	default:
	}
	if n := f.PendingTimers(); n != 0 {
		t.Fatalf("PendingTimers() = %d, want 0", n)
	}
}

func TestFakeZeroDurationFiresImmediately(t *testing.T) {
	f := NewFake(epoch)
	tm := f.NewTimer(0)
	select {
	case <-tm.C():
	default:
		t.Fatal("zero-duration timer did not fire immediately")
	}
}

func TestFakeSet(t *testing.T) {
	f := NewFake(epoch)
	ch := f.After(time.Minute)
	f.Set(epoch.Add(2 * time.Minute))
	select {
	case <-ch:
	default:
		t.Fatal("After channel not ready following Set past deadline")
	}
	// Set to a time in the past must not rewind.
	f.Set(epoch)
	if got := f.Now(); got.Before(epoch.Add(2 * time.Minute)) {
		t.Fatalf("Set rewound the clock to %v", got)
	}
}

func TestSystemClockMonotone(t *testing.T) {
	c := New()
	a := c.Now()
	c.Sleep(time.Millisecond)
	b := c.Now()
	if !b.After(a) {
		t.Fatalf("system clock did not advance: %v then %v", a, b)
	}
	tm := c.NewTimer(time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(time.Second):
		t.Fatal("system timer did not fire")
	}
}

// ticked reports whether a tick is waiting on the timer, without consuming
// more than that one.
func ticked(tm Timer) bool {
	select {
	case <-tm.C():
		return true
	default:
		return false
	}
}

// TestFakeTimerReset: from whatever state, Reset leaves the timer as a fresh
// NewTimer(d) would be, with no tick from before the Reset left to receive.
func TestFakeTimerReset(t *testing.T) {
	states := []struct {
		name    string
		prepare func(f *Fake) Timer
		pending bool // what Reset reports
	}{
		{"pending", func(f *Fake) Timer { return f.NewTimer(time.Minute) }, true},
		{"fired and drained", func(f *Fake) Timer {
			tm := f.NewTimer(time.Second)
			f.Advance(time.Second)
			<-tm.C()
			return tm
		}, false},
		{"fired and undrained", func(f *Fake) Timer {
			tm := f.NewTimer(time.Second)
			f.Advance(time.Second)
			return tm
		}, false},
		{"stopped", func(f *Fake) Timer {
			tm := f.NewTimer(time.Minute)
			tm.Stop()
			return tm
		}, false},
	}
	for _, st := range states {
		t.Run(st.name, func(t *testing.T) {
			f := NewFake(epoch)
			tm := st.prepare(f)
			if got := tm.Reset(10 * time.Second); got != st.pending {
				t.Errorf("Reset() = %v, want %v", got, st.pending)
			}
			want := f.Now().Add(10 * time.Second)
			if n := f.PendingTimers(); n != 1 {
				t.Errorf("PendingTimers() = %d after Reset, want 1", n)
			}
			if at, ok := f.NextDeadline(); !ok || !at.Equal(want) {
				t.Errorf("NextDeadline() = %v, %v; want %v", at, ok, want)
			}
			if ticked(tm) {
				t.Fatal("stale tick after Reset")
			}
			f.Advance(10*time.Second - 1)
			if ticked(tm) {
				t.Fatal("fired before the new deadline")
			}
			f.Advance(1)
			select {
			case at := <-tm.C():
				if !at.Equal(want) {
					t.Errorf("fired at %v, want %v", at, want)
				}
			default:
				t.Fatal("did not fire at the new deadline")
			}
			if ticked(tm) || f.PendingTimers() != 0 {
				t.Error("fired twice or still queued")
			}

			// d <= 0 fires at once, like NewTimer(0), and queues nothing.
			if tm.Reset(0) {
				t.Error("Reset(0) on a fired timer = true")
			}
			if f.PendingTimers() != 0 || !ticked(tm) || ticked(tm) {
				t.Error("Reset(0) did not fire exactly once, immediately")
			}
			if tm.Stop() {
				t.Error("Stop() = true after Reset(0) fired")
			}
		})
	}
}

// TestFakeTimerResetTieOrder: timers with equal deadlines fire in the order
// they were queued, and a Reset queues exactly where Stop + NewTimer would —
// at the back. The event-loop goldens rest on this. Ticks of one Advance all
// carry the same instant, so the order is read off the queue.
func TestFakeTimerResetTieOrder(t *testing.T) {
	order := func(rearm func(f *Fake, a Timer) Timer) []string {
		f := NewFake(epoch)
		a := f.NewTimer(5 * time.Second)
		names := map[Timer]string{f.NewTimer(5 * time.Second): "b"}
		names[rearm(f, a)] = "a"
		names[f.NewTimer(5*time.Second)] = "c"
		var got []string
		for _, tm := range f.timers {
			got = append(got, names[tm])
		}
		f.Advance(5 * time.Second)
		for tm, name := range names {
			if !ticked(tm) {
				t.Fatalf("timer %s did not fire", name)
			}
		}
		return got
	}
	viaReset := order(func(_ *Fake, a Timer) Timer { a.Reset(5 * time.Second); return a })
	viaNew := order(func(f *Fake, a Timer) Timer { a.Stop(); return f.NewTimer(5 * time.Second) })
	if want := []string{"b", "a", "c"}; !reflect.DeepEqual(viaReset, want) || !reflect.DeepEqual(viaNew, want) {
		t.Fatalf("queue order: Reset %v, Stop+NewTimer %v, want %v", viaReset, viaNew, want)
	}
}

// TestSystemTimerReset: a fired, undrained system timer delivers no stale
// tick after Reset (go 1.23+ timer channels), then fires once at the new
// deadline.
func TestSystemTimerReset(t *testing.T) {
	c := New()
	tm := c.NewTimer(time.Millisecond)
	time.Sleep(5 * time.Millisecond) // fired; tick never received
	tm.Reset(time.Hour)
	if ticked(tm) {
		t.Fatal("stale tick after Reset")
	}
	if !tm.Reset(time.Millisecond) {
		t.Error("Reset() = false for a pending timer")
	}
	select {
	case <-tm.C():
	case <-time.After(time.Second):
		t.Fatal("system timer did not fire after Reset")
	}
}

// TestRearmAllocFree pins what the shard worker pays to wait: nothing, once
// it owns its timer and re-arms it with Reset.
func TestRearmAllocFree(t *testing.T) {
	sys := New().NewTimer(10 * time.Microsecond)
	<-sys.C()
	if allocs := testing.AllocsPerRun(100, func() {
		sys.Reset(10 * time.Microsecond)
		<-sys.C()
	}); allocs != 0 {
		t.Errorf("system clock: %v allocations per re-arm, want 0", allocs)
	}
	f := NewFake(epoch)
	fake := f.NewTimer(time.Second)
	if allocs := testing.AllocsPerRun(100, func() {
		fake.Reset(time.Second)
		f.Advance(time.Second)
		<-fake.C()
	}); allocs != 0 {
		t.Errorf("fake clock: %v allocations per re-arm, want 0", allocs)
	}
}
