package clock

import (
	"container/heap"
	"math/bits"
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
// The scheduler runs against any Clock. A parked worker waits on its shard's
// one alarm, set for the earliest deadline (alarm.go): on a Fake clock the
// clock fires it when it advances itself, which it does only once every worker
// is parked (see Fake); on the system clock on Linux it is a timerfd, so a
// task runs within tens of microseconds of its deadline rather than at the
// runtime poller's next millisecond.
type Scheduler struct {
	clk    Clock
	shards []*schedShard
}

// Task is one unit of scheduled work. After and Every allocate theirs; a
// caller on a hot path owns one (embedded in a stream, a pooled delivery, a
// trunk flow), binds it once with Init and queues it with At as often as it
// likes, which allocates nothing.
//
// A Task is single-owner and queued once at a time. At on a task that is still
// queued moves it to the new deadline, and Cancel takes it off the queue; in
// both cases the run it was queued for does not happen unless it has already
// begun, so a wait that ends early or moves needs no guard of its own. Its
// callback may queue it again, and that is how recurring work re-arms itself.
// Stop is permanent; a run already in progress may still complete
// concurrently, so callbacks must tolerate one post-Stop invocation (every
// protocol guards with its own started/closed flag).
type Task struct {
	fn      func(now time.Time)
	dropped func()

	// due, seq and pos belong to the shard the task is queued on; pos is one
	// more than the task's index in the shard's heap, 0 when it is in none.
	due time.Time
	seq uint64
	pos int
	// arms counts the times the task has been queued, and armed is the count
	// of the queuing still to run (0: none). A worker runs a task it took off
	// the heap only if the queuing it took is still armed, so a task moved or
	// cancelled between the pop and its turn in the batch does not run.
	arms    uint64
	armed   atomic.Uint64
	stopped atomic.Bool
}

// Init binds the task's callback. dropped, if non-nil, runs in place of fn
// when the task is queued on a scheduler that has been closed or closes before
// the deadline — the hook a waiter on the task's work needs to be released.
func (t *Task) Init(fn func(now time.Time), dropped func()) {
	t.fn, t.dropped = fn, dropped
}

// Stop cancels the task: it never runs again, and is reaped when its deadline
// passes or, sooner, when it reaches the head of a shard whose worker parks —
// so a stopped timer neither sets the alarm nor wakes anyone. Safe to call
// multiple times and from the task's own callback.
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
func (h taskHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i+1, j+1
}
func (h *taskHeap) Push(x any) {
	t := x.(*Task)
	*h = append(*h, t)
	t.pos = len(*h)
}
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	t.pos = 0
	return t
}

// popped is a task a worker took off its heap for a batch, with the deadline
// and the queuing it was taken for.
type popped struct {
	t   *Task
	due time.Time
	arm uint64
}

type schedShard struct {
	clk   Clock
	alarm alarm

	mu     sync.Mutex
	heap   taskHeap
	seq    uint64
	closed bool
	// parked is set by the worker when it finds nothing due and is about to
	// wait on the alarm, and cleared when it wakes. Only a task that becomes
	// the head of a parked shard sets the alarm from At: a worker running a
	// batch looks at the heap again before it parks, so a task queued
	// meanwhile — a re-arm, a frame sent on by a transit hop — costs nothing.
	// So the worker sets the alarm once per park, after the wake-up that spent
	// it, and At only for a new head: one earlier than anything it was set
	// for, or the head itself moved. A head moved later or cancelled leaves
	// the alarm early, which costs one wake-up that finds nothing due.
	parked bool

	// Telemetry, written by the worker only (see SchedStats).
	runs    atomic.Int64
	wakeups atomic.Int64
	lag     [LagBuckets]atomic.Int64

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
			clk:   clk,
			alarm: newAlarm(clk),
			done:  make(chan struct{}),
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
// one run was. If t is still queued, At moves it: it runs once, at due, and
// after the tasks already queued for due. A queued task moves only under the
// key it was queued under; under another key it may be queued once it has run
// or been cancelled.
func (s *Scheduler) At(key string, t *Task, due time.Time) {
	s.shardFor(key).at(t, due)
}

// Cancel takes t, queued under key, off the queue and reports whether the run
// it was queued for is now not going to happen: false when t was not queued or
// its run has already begun. Unlike Stop it is not permanent — t may be queued
// again at once — and nothing runs in its place, not even the dropped hook.
func (s *Scheduler) Cancel(key string, t *Task) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if t.armed.Swap(0) == 0 {
		return false
	}
	if t.pos > 0 {
		heap.Remove(&sh.heap, t.pos-1)
	}
	return true
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
	var alarms []alarm
	for _, sh := range s.shards {
		sh.mu.Lock()
		if !sh.closed {
			sh.closed = true
			alarms = append(alarms, sh.alarm)
		}
		for _, t := range sh.heap {
			t.pos = 0
		}
		queued = append(queued, sh.heap...)
		sh.heap = nil
		sh.mu.Unlock()
	}
	// Nothing sets an alarm once its shard is closed, so closing it outside
	// the lock is safe; a worker waiting on it returns.
	for _, a := range alarms {
		a.close()
	}
	for _, sh := range s.shards {
		<-sh.done
	}
	for _, t := range queued {
		if t.armed.Swap(0) != 0 { // not cancelled since
			t.drop()
		}
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
	t.arms++
	t.armed.Store(t.arms)
	if t.pos > 0 {
		heap.Fix(&sh.heap, t.pos-1)
	} else {
		heap.Push(&sh.heap, t)
	}
	if sh.parked && sh.heap[0] == t {
		sh.alarm.arm(due)
	}
	sh.mu.Unlock()
}

// run is the shard worker: batch-pop every due task under one lock
// acquisition, run the callbacks outside the lock, and when nothing is due
// park on the alarm, set for the next deadline.
func (sh *schedShard) run() {
	defer close(sh.done)
	var batch []popped
	for {
		sh.mu.Lock()
		if sh.closed {
			sh.mu.Unlock()
			return
		}
		// Awake. An At that set the alarm after it woke the worker and
		// before this lock may leave one expiry behind, which costs a later
		// wake-up that finds nothing due.
		sh.parked = false
		now := sh.clk.Now()
		batch = batch[:0]
		for len(sh.heap) > 0 && !sh.heap[0].due.After(now) {
			t := heap.Pop(&sh.heap).(*Task)
			batch = append(batch, popped{t, t.due, t.arms})
		}
		if len(batch) == 0 {
			sh.park()
		}
		sh.mu.Unlock()

		if len(batch) > 0 {
			sh.runBatch(now, batch)
			clear(batch) // so that the reused slice pins no task that has run
			continue     // deadlines may have passed while running callbacks
		}
		if !sh.alarm.wait() {
			return
		}
		sh.wakeups.Add(1)
	}
}

// park reaps stopped tasks off the head of the heap — a cancelled timer
// neither sets the alarm nor wakes the worker — and sets the alarm for the
// earliest deadline left. With nothing queued the alarm stays unset and only
// At sets it. Called with sh.mu held.
func (sh *schedShard) park() {
	for len(sh.heap) > 0 && sh.heap[0].stopped.Load() {
		heap.Pop(&sh.heap)
	}
	if len(sh.heap) > 0 {
		sh.alarm.arm(sh.heap[0].due)
	}
	sh.parked = true
}

// runBatch runs a batch's callbacks outside the lock and records how late
// each ran against its deadline. A task runs only if the queuing it was popped
// for is still armed: its owner may have moved or cancelled it since. The run
// claims the queuing before it begins, so Cancel can tell whether the run was
// still to come.
func (sh *schedShard) runBatch(now time.Time, batch []popped) {
	ran := 0
	for _, p := range batch {
		if p.t.stopped.Load() || !p.t.armed.CompareAndSwap(p.arm, 0) {
			continue
		}
		sh.lag[lagBucket(now.Sub(p.due))].Add(1)
		p.t.fn(now)
		ran++
	}
	sh.runs.Add(int64(ran))
}

// LagBuckets is the number of buckets in SchedStats.Lag.
const LagBuckets = 24

// SchedStats is what a scheduler's workers have done since it was created,
// summed over its shards. Every counter is a per-shard atomic bumped by the
// shard's worker, so keeping them costs no allocation and no lock.
type SchedStats struct {
	// Runs counts task callbacks run; a stopped task reaped unrun is not
	// one.
	Runs int64
	// Wakeups counts the times a parked worker was woken by its alarm. A
	// worker wakes once per distinct deadline it parks for, so Wakeups per
	// second is what on-time wake-ups cost in CPU.
	Wakeups int64
	// Lag is a log2 histogram of how late tasks ran: the instant the worker
	// passed to the callback minus the task's deadline. Lag[0] counts runs
	// less than 1 µs late, Lag[i] those in [2^(i-1), 2^i) µs, and the last
	// bucket everything later. On the real clock this is host latency plus
	// backlog; on a Fake clock, which stops at every deadline, it is 0 for
	// every task queued with a deadline not yet past.
	Lag [LagBuckets]int64
}

// lagBucket maps a lateness to its Lag bucket.
func lagBucket(lag time.Duration) int {
	return min(bits.Len64(uint64(max(lag, 0)/time.Microsecond)), LagBuckets-1)
}

// Stats returns the workers' counters summed over all shards. Safe to call
// concurrently with running tasks; the sum is not one atomic snapshot.
func (s *Scheduler) Stats() SchedStats {
	var st SchedStats
	for _, sh := range s.shards {
		st.Runs += sh.runs.Load()
		st.Wakeups += sh.wakeups.Load()
		for i := range sh.lag {
			st.Lag[i] += sh.lag[i].Load()
		}
	}
	return st
}
