package clock

import (
	"os"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestSchedulerSystemClockOnTime: 500 one-shot tasks 2 ms apart on one
// system-clock shard run a median of at most 200 µs after their deadlines. A
// worker woken by a Go timer reads about 600 µs here — the runtime poller
// rounds a wait up to whole milliseconds — and the timerfd about 15 µs. A
// round that a busy host spoils is retried; a millisecond-granular wait fails
// every round.
func TestSchedulerSystemClockOnTime(t *testing.T) {
	const (
		tasks  = 500
		gap    = 2 * time.Millisecond
		bound  = 200 * time.Microsecond
		rounds = 3
	)
	s := NewScheduler(New(), 1)
	defer s.Close()
	if _, ok := s.shards[0].alarm.(*fdAlarm); !ok {
		t.Fatalf("system clock shard waits on %T, want a timerfd", s.shards[0].alarm)
	}
	var median time.Duration
	for round := 1; round <= rounds; round++ {
		late := make([]time.Duration, tasks)
		var wg sync.WaitGroup
		start := time.Now()
		for i := range late {
			due := start.Add(time.Duration(i+5) * gap)
			wg.Add(1)
			s.At("n", &Task{fn: func(now time.Time) { late[i] = now.Sub(due); wg.Done() }}, due)
		}
		wg.Wait()
		slices.Sort(late)
		median = late[tasks/2]
		t.Logf("round %d: lateness p50 %v, p99 %v", round, median, late[tasks*99/100])
		if median <= bound {
			return
		}
	}
	t.Fatalf("median lateness %v in each of %d rounds, want <= %v", median, rounds, bound)
}

// TestSchedulerReleasesAlarms: a scheduler's timerfds are closed with it —
// 1 000 NewScheduler/Close cycles leave the process's descriptor count where
// it was.
func TestSchedulerReleasesAlarms(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd:", err)
		}
		return len(ents)
	}
	before := fds()
	for range 1000 {
		s := NewScheduler(New(), 0)
		s.After("n", time.Hour, func(time.Time) {})
		s.Close()
	}
	if after := fds(); after != before {
		t.Fatalf("%d open descriptors after 1000 schedulers, %d before", after, before)
	}
}
