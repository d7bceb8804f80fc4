package rtp

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
)

// Task is one unit of periodically paced work: the pacer calls fire when the
// task's deadline passes, and fire answers with the interval to the next
// firing (or done). Media streams are tasks, and so is the gateway trunk
// flusher — anything that needs frame-rate scheduling shares the one pacer
// goroutine instead of owning a timer.
//
// A Task is single-owner: it must not be scheduled again while it is still
// registered with a pacer. Once fire returns done (or stopped runs), the same
// Task value may be rescheduled — that is how intermittent tasks like the
// trunk flusher park themselves while idle without allocating on re-arm.
type Task struct {
	// fire runs one step on the pacer goroutine and returns the interval to
	// the next firing; ok=false retires the task.
	fire func() (next time.Duration, ok bool)
	// stopped, if non-nil, runs when the task leaves the pacer — after fire
	// returned done, or when the pacer shuts down with the task still queued.
	stopped func()

	// due/seq belong to the pacer goroutine (and the single Schedule call
	// before the task is visible to it).
	due time.Time
	seq uint64
}

// NewTask builds a schedulable task. stopped may be nil.
func NewTask(fire func() (time.Duration, bool), stopped func()) *Task {
	return &Task{fire: fire, stopped: stopped}
}

func (t *Task) stop() {
	if t.stopped != nil {
		t.stopped()
	}
}

// Pacer is the media plane's shared frame scheduler: one goroutine drains a
// (due, seq) min-heap of active tasks and fires each one when its deadline
// passes — the same shape as netem's delivery scheduler, replacing the
// goroutine-plus-timer-per-frame model. Any number of concurrent streams and
// trunk flows across any number of sessions share the one goroutine; a
// Scenario constructs one pacer for its whole deployment.
type Pacer struct {
	clk clock.Clock

	mu     sync.Mutex
	heap   pacerHeap
	seq    uint64
	closed bool

	wake chan struct{}
	stop chan struct{}
	done chan struct{}
}

// NewPacer starts a pacer on clk. Close it when the deployment shuts down.
func NewPacer(clk clock.Clock) *Pacer {
	p := &Pacer{
		clk:  clk,
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go p.run()
	return p
}

// Clock returns the pacer's time source, so components scheduling tasks share
// its notion of now.
func (p *Pacer) Clock() clock.Clock { return p.clk }

// Schedule registers t to fire at due. On a closed pacer the task's stopped
// hook runs immediately.
func (p *Pacer) Schedule(t *Task, due time.Time) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		t.stop()
		return
	}
	t.due = due
	t.seq = p.seq
	p.seq++
	heap.Push(&p.heap, t)
	first := p.heap[0] == t
	p.mu.Unlock()
	if first {
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
}

func (p *Pacer) run() {
	defer close(p.done)
	var batch []*Task
	var timer clock.Timer // one per pacer, re-armed per wait
	for {
		p.mu.Lock()
		now := p.clk.Now()
		batch = batch[:0]
		for len(p.heap) > 0 && !p.heap[0].due.After(now) {
			batch = append(batch, heap.Pop(&p.heap).(*Task))
		}
		wait, pending := time.Duration(0), false
		if len(p.heap) > 0 {
			wait, pending = p.heap[0].due.Sub(now), true
		}
		p.mu.Unlock()
		live := batch[:0]
		for _, t := range batch {
			if d, ok := t.fire(); ok {
				t.due = t.due.Add(d)
				live = append(live, t)
			} else {
				t.stop()
			}
		}
		if len(live) > 0 {
			p.mu.Lock()
			if p.closed {
				p.mu.Unlock()
				for _, t := range live {
					t.stop()
				}
				return
			}
			for _, t := range live {
				t.seq = p.seq
				p.seq++
				heap.Push(&p.heap, t)
			}
			p.mu.Unlock()
		}
		if len(batch) > 0 {
			continue // new deadlines may have passed while firing
		}
		if !pending {
			select {
			case <-p.stop:
				return
			case <-p.wake:
			}
			continue
		}
		timer = clock.Rearm(p.clk, timer, wait)
		select {
		case <-p.stop:
			timer.Stop()
			return
		case <-p.wake:
			timer.Stop()
		case <-timer.C():
		}
	}
}

// Close stops the scheduler goroutine. Tasks still queued are stopped
// immediately, so stream waiters unblock with the frames sent so far.
func (p *Pacer) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.done
		return
	}
	p.closed = true
	pending := append([]*Task(nil), p.heap...)
	p.heap = nil
	p.mu.Unlock()
	close(p.stop)
	<-p.done
	for _, t := range pending {
		t.stop()
	}
}

// pacerHeap is a min-heap of scheduled tasks ordered by (due, seq).
type pacerHeap []*Task

func (h pacerHeap) Len() int { return len(h) }
func (h pacerHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}
func (h pacerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *pacerHeap) Push(x any)   { *h = append(*h, x.(*Task)) }
func (h *pacerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// Stream is a handle to one in-flight voice stream started by
// Session.StartStream. Wait blocks until the stream finishes (all frames
// sent, the stream stopped, or the session/pacer closed) and returns the
// number of frames handed to the network.
type Stream struct {
	sess   *Session
	dst    netem.NodeID
	port   uint16
	frames int

	// task is the stream's pacer registration; its closure is set once in
	// StartStream so steady-state pacing allocates nothing.
	task Task
	i    int

	// payload/wire/pkt are per-stream scratch reused every frame so the
	// steady-state send path allocates nothing.
	payload []byte
	wire    []byte
	pkt     Packet

	sent      atomic.Int64
	cancelled atomic.Bool
	done      chan struct{}
	doneOnce  sync.Once
}

// Wait blocks until the stream finishes and returns the frames sent.
func (st *Stream) Wait() int {
	<-st.done
	return int(st.sent.Load())
}

// Done is closed when the stream finishes.
func (st *Stream) Done() <-chan struct{} { return st.done }

// Sent returns the frames handed to the network so far.
func (st *Stream) Sent() int { return int(st.sent.Load()) }

// Stop cancels the stream: no further frames are sent and Wait unblocks.
func (st *Stream) Stop() {
	st.cancelled.Store(true)
	st.finish()
}

func (st *Stream) finish() {
	st.doneOnce.Do(func() {
		close(st.done)
		st.sess.removeStream(st)
	})
}

// step sends the stream's next frame and reports whether more remain. Called
// only from the pacer goroutine.
func (st *Stream) step() (time.Duration, bool) {
	if st.cancelled.Load() {
		return 0, false
	}
	s := st.sess
	st.payload = AppendVoicePayload(st.payload[:0], uint32(st.i), s.clk.Now())
	st.pkt = Packet{
		PayloadType: PayloadTypePCMU,
		Seq:         uint16(st.i),
		Timestamp:   uint32(st.i) * SamplesPerFrame,
		SSRC:        s.ssrc,
		Payload:     st.payload,
	}
	st.wire = st.pkt.AppendTo(st.wire[:0])
	if err := s.conn.WriteTo(st.wire, st.dst, st.port); err == nil {
		st.sent.Add(1)
	}
	s.sent.Add(1)
	st.i++
	if st.i < st.frames {
		return FrameDuration, true
	}
	return 0, false
}
