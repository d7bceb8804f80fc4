package rtp

import (
	"time"

	"siphoc/internal/clock"
)

// Pacer adapts the fire-and-say-when-next form of periodic work to a
// clock.Scheduler: it has no heap and no loop of its own. Media streams and the
// gateway trunk are tasks on their host's scheduler directly; the benchmark
// driver's pacer-lateness probe (bench/layers.go) is the Pacer's only outside
// caller, which is why it still exists.
type Pacer struct {
	sched *clock.Scheduler
}

// Task is one unit of periodically paced work for a Pacer: fire runs when the
// task's deadline passes and answers with the interval from that deadline to
// the next one (or done). A Task is single-owner: it must not be scheduled
// again while it is still queued.
type Task struct {
	fire    func() (next time.Duration, ok bool)
	stopped func()
	task    clock.Task
	due     time.Time
}

// NewTask builds a schedulable task. stopped, if non-nil, runs when the task
// leaves the pacer — after fire returned done, or when the pacer shuts down
// with the task still queued.
func NewTask(fire func() (time.Duration, bool), stopped func()) *Task {
	return &Task{fire: fire, stopped: stopped}
}

func (t *Task) stop() {
	if t.stopped != nil {
		t.stopped()
	}
}

// NewPacer starts a one-shard scheduler on clk. Close it when done.
func NewPacer(clk clock.Clock) *Pacer {
	return &Pacer{sched: clock.NewScheduler(clk, 1)}
}

// Schedule queues t to fire at due, and from then on at the previous deadline
// plus whatever fire returned, so a late firing does not delay the ones after
// it. On a closed pacer the task's stopped hook runs immediately.
func (p *Pacer) Schedule(t *Task, due time.Time) {
	t.due = due
	t.task.Init(func(time.Time) {
		next, ok := t.fire()
		if !ok {
			t.stop()
			return
		}
		t.due = t.due.Add(next)
		p.sched.At("", &t.task, t.due)
	}, t.stop)
	p.sched.At("", &t.task, due)
}

// Close stops the scheduler. Tasks still queued are stopped, so their waiters
// unblock.
func (p *Pacer) Close() { p.sched.Close() }
