package clock

import (
	"container/heap"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Scheduler is a sharded virtual-time event loop for recurring protocol
// timers. Instead of one goroutine per node per timer (the pattern that
// drowns past a few hundred nodes: ~6 steady goroutines each for OLSR
// HELLO/TC, SLP refresh, SIP retransmissions, ...), every timer is a Task on
// a per-shard min-heap and a bounded pool of min(GOMAXPROCS, shards) worker
// loops pops whole batches of due tasks per tick under a single lock
// acquisition.
//
// Tasks registered under the same key always land on the same shard, so one
// node's timers never run concurrently with each other — protocols keep the
// serialization their per-node loops gave them without paying a goroutine
// for it.
//
// The scheduler runs against any Clock. On a Fake clock a worker arms one
// fake timer per shard for the earliest deadline, exactly like the netem
// delivery scheduler, so deterministic tests drive it with Advance.
type Scheduler struct {
	clk    Clock
	shards []*schedShard
}

// Task is one scheduled timer. Recurring tasks (Every) re-arm themselves
// after each run; one-shot tasks (After) fire once. Stop cancels future
// firings; a run already in progress may still complete concurrently, so
// callbacks must tolerate one post-Stop invocation (every protocol guards
// with its own started/closed flag).
type Task struct {
	shard    *schedShard
	fn       func(now time.Time)
	interval time.Duration // 0 => one-shot
	due      time.Time
	seq      uint64
	stopped  atomic.Bool
}

// Stop cancels the task. Safe to call multiple times and from the task's own
// callback.
func (t *Task) Stop() {
	if t == nil {
		return
	}
	t.stopped.Store(true)
}

// Stopped reports whether Stop was called.
func (t *Task) Stopped() bool { return t.stopped.Load() }

// taskHeap is a min-heap of tasks ordered by (due, seq) — the same FIFO
// tie-break as the netem delivery heap, so equal deadlines fire in
// registration order.
type taskHeap []*Task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(*Task)) }
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

type schedShard struct {
	clk Clock

	mu   sync.Mutex
	heap taskHeap
	seq  uint64

	wake chan struct{}
	stop chan struct{}
	done chan struct{}
}

// NewScheduler creates a scheduler with the given number of shards, each
// driven by its own worker loop. shards <= 0 picks GOMAXPROCS; the effective
// count is clamped to [1, GOMAXPROCS] so the worker pool never exceeds the
// parallelism the runtime will actually grant (the ISSUE's
// min(GOMAXPROCS, shards) bound).
func NewScheduler(clk Clock, shards int) *Scheduler {
	maxp := runtime.GOMAXPROCS(0)
	if shards <= 0 || shards > maxp {
		shards = maxp
	}
	if shards < 1 {
		shards = 1
	}
	s := &Scheduler{clk: clk, shards: make([]*schedShard, shards)}
	for i := range s.shards {
		sh := &schedShard{
			clk:  clk,
			wake: make(chan struct{}, 1),
			stop: make(chan struct{}),
			done: make(chan struct{}),
		}
		s.shards[i] = sh
		go sh.run()
	}
	return s
}

// Shards returns the number of shards (== worker goroutines).
func (s *Scheduler) Shards() int { return len(s.shards) }

// Goroutines returns the steady goroutine cost of the scheduler — one worker
// per shard, independent of how many tasks are registered. The goroutine
// regression test pins scenario bring-up against this.
func (s *Scheduler) Goroutines() int { return len(s.shards) }

// Pending returns the total number of tasks currently queued across all
// shards (stopped-but-unreaped tasks included). Test helper.
func (s *Scheduler) Pending() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += len(sh.heap)
		sh.mu.Unlock()
	}
	return total
}

// shardFor hashes key with FNV-1a, the same cheap stable hash the SLP shards
// and the federation registrar tier use.
func (s *Scheduler) shardFor(key string) *schedShard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return s.shards[h%uint64(len(s.shards))]
}

// Every registers a recurring task: fn first runs after interval and then
// re-arms at Now()+interval after each run, the cadence of a
// `for { t := clk.NewTimer(interval); <-t.C(); body }` loop.
func (s *Scheduler) Every(key string, interval time.Duration, fn func(now time.Time)) *Task {
	sh := s.shardFor(key)
	t := &Task{shard: sh, fn: fn, interval: interval}
	sh.add(t, interval)
	return t
}

// After registers a one-shot task firing once after d. d <= 0 fires on the
// worker's next tick.
func (s *Scheduler) After(key string, d time.Duration, fn func(now time.Time)) *Task {
	sh := s.shardFor(key)
	t := &Task{shard: sh, fn: fn}
	sh.add(t, d)
	return t
}

// Close stops all worker loops. Pending tasks are dropped.
func (s *Scheduler) Close() {
	for _, sh := range s.shards {
		close(sh.stop)
	}
	for _, sh := range s.shards {
		<-sh.done
	}
}

func (sh *schedShard) add(t *Task, d time.Duration) {
	if d < 0 {
		d = 0
	}
	sh.mu.Lock()
	t.due = sh.clk.Now().Add(d)
	t.seq = sh.seq
	sh.seq++
	heap.Push(&sh.heap, t)
	first := sh.heap[0] == t
	sh.mu.Unlock()
	if first {
		sh.wakeUp()
	}
}

// rearm pushes a batch of recurring tasks back under one lock acquisition.
func (sh *schedShard) rearm(ts []*Task) {
	if len(ts) == 0 {
		return
	}
	sh.mu.Lock()
	newHead := false
	for _, t := range ts {
		t.seq = sh.seq
		sh.seq++
		heap.Push(&sh.heap, t)
		if sh.heap[0] == t {
			newHead = true
		}
	}
	sh.mu.Unlock()
	if newHead {
		sh.wakeUp()
	}
}

func (sh *schedShard) wakeUp() {
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// run is the shard worker: batch-pop every due task under one lock
// acquisition, run the callbacks outside the lock, re-arm the recurring
// survivors in one more acquisition, then sleep until the next deadline.
// Structure cloned from the proven netem delivery scheduler.
func (sh *schedShard) run() {
	defer close(sh.done)
	var batch, rearm []*Task
	var timer Timer // one per worker, re-armed per wait
	for {
		sh.mu.Lock()
		now := sh.clk.Now()
		batch = batch[:0]
		for len(sh.heap) > 0 && !sh.heap[0].due.After(now) {
			batch = append(batch, heap.Pop(&sh.heap).(*Task))
		}
		wait, pending := time.Duration(0), false
		if len(sh.heap) > 0 {
			wait, pending = sh.heap[0].due.Sub(now), true
		}
		sh.mu.Unlock()

		rearm = rearm[:0]
		for _, t := range batch {
			if t.stopped.Load() {
				continue
			}
			t.fn(now)
			if t.interval > 0 && !t.stopped.Load() {
				t.due = sh.clk.Now().Add(t.interval)
				rearm = append(rearm, t)
			}
		}
		sh.rearm(rearm)
		if len(batch) > 0 {
			continue // deadlines may have passed while running callbacks
		}
		if !pending {
			select {
			case <-sh.stop:
				return
			case <-sh.wake:
			}
			continue
		}
		timer = Rearm(sh.clk, timer, wait)
		select {
		case <-sh.stop:
			timer.Stop()
			return
		case <-sh.wake:
			timer.Stop()
		case <-timer.C():
		}
	}
}
