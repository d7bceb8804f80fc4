package netem

import (
	"container/heap"
	"sync"
	"time"

	"siphoc/internal/clock"
)

// delivery is one scheduled frame hand-off: a frame plus the receiver set it
// must reach once its deadline passes. Unicast frames use the inline host
// field so the common case allocates no slice; broadcast frames reference the
// adjacency cache's immutable host slice directly (the cache is replaced, not
// mutated, on topology changes, so sharing is safe).
type delivery struct {
	due   time.Time
	seq   uint64 // FIFO tie-break for equal deadlines: in-order per link
	frame Frame
	one   *Host
	many  []*Host
	// dg/dgHost carry a zero-delay local (loopback) datagram: routing it
	// through the shard scheduler instead of invoking the receiver inline
	// keeps per-host delivery serialized and prevents reentrant handler
	// nesting when an application answers its own host.
	dg     *Datagram
	dgHost *Host
}

func (d *delivery) deliver() {
	if d.dg != nil {
		d.dgHost.deliverLocal(d.dg)
		return
	}
	if d.one != nil {
		d.one.enqueue(d.frame)
		return
	}
	for _, h := range d.many {
		h.enqueue(d.frame)
	}
}

// deliveryHeap is a min-heap ordered by (due, seq).
type deliveryHeap []*delivery

func (h deliveryHeap) Len() int { return len(h) }
func (h deliveryHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}
func (h deliveryHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *deliveryHeap) Push(x any)   { *h = append(*h, x.(*delivery)) }
func (h *deliveryHeap) Pop() any {
	old := *h
	n := len(old)
	d := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return d
}

var deliveryPool = sync.Pool{New: func() any { return new(delivery) }}

// scheduler is one delivery shard: a goroutine that drains a min-heap of
// pending deliveries in deadline order. One timer is armed for the earliest
// deadline; earlier insertions wake the loop to re-arm.
type scheduler struct {
	clk clock.Clock

	mu   sync.Mutex
	heap deliveryHeap
	seq  uint64

	wake chan struct{}
	stop chan struct{}
	done chan struct{}
}

func newScheduler(clk clock.Clock) *scheduler {
	s := &scheduler{
		clk:  clk,
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go s.run()
	return s
}

// schedule queues a delivery. The scheduler takes ownership of d (it returns
// it to the pool after delivery).
func (s *scheduler) schedule(d *delivery) {
	s.mu.Lock()
	d.seq = s.seq
	s.seq++
	heap.Push(&s.heap, d)
	first := s.heap[0] == d
	s.mu.Unlock()
	if first {
		s.wakeUp()
	}
}

// scheduleBatch queues several deliveries from one frame under a single lock
// acquisition — the fan-out path where per-link quality overrides peel
// receivers onto their own deadlines would otherwise take the heap lock once
// per receiver. Sequence numbers are assigned in slice order, preserving the
// per-link FIFO tie-break.
func (s *scheduler) scheduleBatch(ds []*delivery) {
	if len(ds) == 0 {
		return
	}
	s.mu.Lock()
	newHead := false
	for _, d := range ds {
		d.seq = s.seq
		s.seq++
		heap.Push(&s.heap, d)
		if s.heap[0] == d {
			newHead = true
		}
	}
	s.mu.Unlock()
	if newHead {
		s.wakeUp()
	}
}

func (s *scheduler) wakeUp() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

func (s *scheduler) run() {
	defer close(s.done)
	var batch []*delivery
	var timer clock.Timer // one per scheduler, re-armed per wait
	for {
		s.mu.Lock()
		now := s.clk.Now()
		batch = batch[:0]
		for len(s.heap) > 0 && !s.heap[0].due.After(now) {
			batch = append(batch, heap.Pop(&s.heap).(*delivery))
		}
		wait, pending := time.Duration(0), false
		if len(s.heap) > 0 {
			wait, pending = s.heap[0].due.Sub(now), true
		}
		s.mu.Unlock()
		for _, d := range batch {
			d.deliver()
			*d = delivery{}
			deliveryPool.Put(d)
		}
		if len(batch) > 0 {
			continue // new deadlines may have passed while delivering
		}
		if !pending {
			select {
			case <-s.stop:
				return
			case <-s.wake:
			}
			continue
		}
		timer = clock.Rearm(s.clk, timer, wait)
		select {
		case <-s.stop:
			timer.Stop()
			return
		case <-s.wake:
			timer.Stop()
		case <-timer.C():
		}
	}
}

// close stops the delivery goroutine. Deliveries still pending are dropped;
// their receivers are about to be closed anyway.
func (s *scheduler) close() {
	close(s.stop)
	<-s.done
}
