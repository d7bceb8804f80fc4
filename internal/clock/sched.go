package clock

import (
	"container/heap"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Scheduler is a sharded virtual-time event loop, and the only one in the
// repository: protocol timers, the medium's frame deliveries and paced media
// frames are all Tasks on a per-shard (due, seq) min-heap, and one worker per
// shard pops whole batches of due tasks under a single lock acquisition. There
// is no goroutine per node, per timer, per stream or per frame.
//
// Tasks scheduled under the same key always land on the same shard, so
// everything keyed by one node's ID — its timers, the frames addressed to it,
// its media streams — runs on one worker in one (due, seq) order and never
// concurrently with itself.
//
// The scheduler runs against any Clock. On a Fake clock a worker arms one fake
// timer per shard for the earliest deadline, so deterministic tests drive it
// with Advance.
type Scheduler struct {
	clk    Clock
	shards []*schedShard
}

// Task is one unit of scheduled work. After and Every allocate theirs; a
// caller on a hot path owns one (embedded in a stream, a pooled delivery, a
// trunk flow), binds it once with Init and queues it with At as often as it
// likes, which allocates nothing.
//
// A Task is single-owner: it must not be queued again while it is still
// queued. Its callback may queue it again, and that is how recurring work
// re-arms itself. Stop is permanent; a run already in progress may still
// complete concurrently, so callbacks must tolerate one post-Stop invocation
// (every protocol guards with its own started/closed flag).
type Task struct {
	fn      func(now time.Time)
	dropped func()

	// due/seq belong to the shard the task is queued on.
	due     time.Time
	seq     uint64
	stopped atomic.Bool
}

// Init binds the task's callback. dropped, if non-nil, runs in place of fn
// when the task is queued on a scheduler that has been closed or closes before
// the deadline — the hook a waiter on the task's work needs to be released.
func (t *Task) Init(fn func(now time.Time), dropped func()) {
	t.fn, t.dropped = fn, dropped
}

// Stop cancels the task: it never runs again, and is reaped when its deadline
// passes. Safe to call multiple times and from the task's own callback.
func (t *Task) Stop() {
	if t == nil {
		return
	}
	t.stopped.Store(true)
}

// Stopped reports whether Stop was called.
func (t *Task) Stopped() bool { return t.stopped.Load() }

// taskHeap is a min-heap of tasks ordered by (due, seq): equal deadlines fire
// in the order they were queued, whatever kind of task they are, which is what
// keeps a link's frames in order.
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

	mu     sync.Mutex
	heap   taskHeap
	seq    uint64
	closed bool
	// parked is set by the worker when it finds nothing due and goes to
	// sleep, and cleared by whoever wakes it. A worker running a batch looks
	// at the heap again before it sleeps, so a task queued meanwhile — a
	// re-arm, a frame sent on by a transit hop — sends no wake-up, and none
	// is ever left over for a later sleep to trip on.
	parked bool

	wake chan struct{}
	stop chan struct{}
	done chan struct{}
}

// NewScheduler creates a scheduler with the given number of shards, each
// driven by its own worker loop. shards <= 0 picks GOMAXPROCS; the effective
// count is clamped to [1, GOMAXPROCS] so the worker pool never exceeds the
// parallelism the runtime will actually grant.
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

// Shards returns the number of shards, which is the number of goroutines the
// scheduler owns however many tasks are queued.
func (s *Scheduler) Shards() int { return len(s.shards) }

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

// At queues t on key's shard to run once the clock reaches due; a due that has
// already passed runs on the worker's next tick. The deadline is absolute, so
// work that re-arms itself at due+interval keeps its cadence however late any
// one run was.
func (s *Scheduler) At(key string, t *Task, due time.Time) {
	s.shardFor(key).at(t, due)
}

// After queues a one-shot task firing once after d. d <= 0 fires on the
// worker's next tick.
func (s *Scheduler) After(key string, d time.Duration, fn func(now time.Time)) *Task {
	t := &Task{fn: fn}
	s.At(key, t, s.clk.Now().Add(max(d, 0)))
	return t
}

// Every queues a recurring task: fn first runs after interval and then
// re-arms at Now()+interval after each run, the cadence of a
// `for { t := clk.NewTimer(interval); <-t.C(); body }` loop.
func (s *Scheduler) Every(key string, interval time.Duration, fn func(now time.Time)) *Task {
	sh := s.shardFor(key)
	t := new(Task)
	t.fn = func(now time.Time) {
		fn(now)
		if !t.Stopped() {
			sh.at(t, sh.clk.Now().Add(interval))
		}
	}
	sh.at(t, sh.clk.Now().Add(interval))
	return t
}

// Close stops all worker loops and returns once they have exited. Tasks still
// queued are dropped: each one's dropped hook runs, so nothing is left waiting
// on work that will never happen. Safe to call more than once.
func (s *Scheduler) Close() {
	var queued []*Task
	for _, sh := range s.shards {
		sh.mu.Lock()
		if !sh.closed {
			sh.closed = true
			close(sh.stop)
		}
		queued = append(queued, sh.heap...)
		sh.heap = nil
		sh.mu.Unlock()
	}
	for _, sh := range s.shards {
		<-sh.done
	}
	for _, t := range queued {
		t.drop()
	}
}

func (t *Task) drop() {
	if t.dropped != nil {
		t.dropped()
	}
}

func (sh *schedShard) at(t *Task, due time.Time) {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		t.drop()
		return
	}
	t.due = due
	t.seq = sh.seq
	sh.seq++
	heap.Push(&sh.heap, t)
	wake := sh.heap[0] == t && sh.parked
	if wake {
		sh.parked = false
	}
	sh.mu.Unlock()
	if wake {
		select {
		case sh.wake <- struct{}{}:
		default:
		}
	}
}

// run is the shard worker: batch-pop every due task under one lock
// acquisition, run the callbacks outside the lock, then sleep until the next
// deadline on the one timer the worker owns.
func (sh *schedShard) run() {
	defer close(sh.done)
	var batch []*Task
	var timer Timer
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
		sh.parked = len(batch) == 0
		sh.mu.Unlock()

		for _, t := range batch {
			if !t.stopped.Load() {
				t.fn(now)
			}
		}
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
		if timer == nil {
			timer = sh.clk.NewTimer(wait)
		} else {
			timer.Reset(wait)
		}
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
