package rtp

import (
	"time"
)

// JitterBuffer is a fixed-delay playout buffer: packets are held for the
// configured playout delay and released in sequence order, absorbing network
// jitter and reordering. Packets arriving after their playout deadline are
// counted late and dropped, matching what a softphone's audio path does.
//
// Usage: Put every received packet, then call PopDue(now) (or FlushDue on
// hot paths) at the playout cadence; due frames are released in order.
type JitterBuffer struct {
	delay time.Duration
	// buf holds pending packets by value, keyed by sequence number.
	buf map[uint16]bufEntry
	// deadlines is a min-heap over buffered frames' playout deadlines with
	// lazy deletion: popped/overwritten frames leave stale items behind that
	// are pruned when they reach the top. Its minimum answers "is any
	// buffered frame overdue" in O(1) instead of a full map scan per pop.
	// It starts on inline, which a voice stream played out on time never
	// outgrows.
	deadlines deadlineHeap
	inline    [inlineFrames]deadlineItem
	// next is the next sequence number owed to the player.
	next    uint16
	started bool

	played int64
	late   int64
	// missing counts sequence numbers skipped because their packet never
	// arrived by the time playout moved past them.
	missing int64
}

type bufEntry struct {
	pkt      Packet
	deadline time.Time
}

type deadlineItem struct {
	deadline time.Time
	seq      uint16
}

// deadlineHeap is a hand-rolled min-heap on the typed slice: container/heap
// would box every pushed item into an interface, costing one allocation per
// received frame on the hot path.
type deadlineHeap []deadlineItem

func (j *JitterBuffer) heapPush(it deadlineItem) {
	h := append(j.deadlines, it)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].deadline.Before(h[parent].deadline) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	j.deadlines = h
}

func (j *JitterBuffer) heapPop() {
	h := j.deadlines
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h[l].deadline.Before(h[min].deadline) {
			min = l
		}
		if r < n && h[r].deadline.Before(h[min].deadline) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	j.deadlines = h
}

// DefaultPlayoutDelay is a typical interactive-voice playout buffer depth.
const DefaultPlayoutDelay = 60 * time.Millisecond

// inlineFrames is how many buffered frames the deadline heap holds before it
// grows: the default playout window's three frames and the one arriving,
// twice over for jitter.
const inlineFrames = 2 * (int(DefaultPlayoutDelay/FrameDuration) + 1)

// NewJitterBuffer creates a buffer with the given playout delay
// (DefaultPlayoutDelay when zero).
func NewJitterBuffer(delay time.Duration) *JitterBuffer {
	j := new(JitterBuffer)
	j.init(delay)
	return j
}

// init readies a zero buffer; it must not be copied afterwards.
func (j *JitterBuffer) init(delay time.Duration) {
	if delay <= 0 {
		delay = DefaultPlayoutDelay
	}
	j.delay = delay
	j.buf = make(map[uint16]bufEntry)
	j.deadlines = j.inline[:0]
}

// Put inserts a received packet. now is the arrival time. The packet is
// copied by value, Payload slice and all: the caller may not mutate the bytes
// it points at until the frame is popped. (A Session, whose payloads borrow a
// datagram buffer, buffers headers only.)
func (j *JitterBuffer) Put(pkt *Packet, now time.Time) {
	if !j.started {
		j.started = true
		j.next = pkt.Seq
	}
	if seqBefore(pkt.Seq, j.next) {
		// Before playout has emitted anything the playout point can
		// still rewind to cover initial reordering; afterwards the slot
		// has passed and the frame is late.
		if j.played == 0 && j.missing == 0 {
			j.next = pkt.Seq
		} else {
			j.late++
			return
		}
	}
	deadline := now.Add(j.delay)
	j.buf[pkt.Seq] = bufEntry{pkt: *pkt, deadline: deadline}
	j.heapPush(deadlineItem{deadline: deadline, seq: pkt.Seq})
}

// PopDue returns, in sequence order, every frame whose playout deadline has
// passed. Gaps whose deadline passed without the packet arriving are skipped
// and counted missing (a player would insert comfort noise there).
func (j *JitterBuffer) PopDue(now time.Time) []*Packet {
	var out []*Packet
	j.advance(now, &out)
	return out
}

// FlushDue plays every due frame like PopDue but only returns the count,
// avoiding any materialization of the frames — the session hot path.
func (j *JitterBuffer) FlushDue(now time.Time) int {
	return j.advance(now, nil)
}

func (j *JitterBuffer) advance(now time.Time, out *[]*Packet) int {
	if !j.started {
		return 0
	}
	n := 0
	for {
		e, ok := j.buf[j.next]
		if ok {
			if e.deadline.After(now) {
				break // present but not due yet
			}
			delete(j.buf, j.next)
			if out != nil {
				pkt := e.pkt
				*out = append(*out, &pkt)
			}
			n++
			j.played++
			j.next++
			continue
		}
		// The next frame is absent: only skip it once some later frame
		// is already overdue, i.e. the gap provably stalls playout.
		if !j.laterFrameOverdue(now) {
			break
		}
		j.missing++
		j.next++
	}
	if n > 0 {
		// Popped frames left stale items behind; in-order traffic never
		// reaches laterFrameOverdue, so prune here to keep the heap bounded
		// by the number of buffered frames.
		j.pruneStale()
	}
	return n
}

// pruneStale pops heap items that no longer correspond to a buffered frame
// (their frame was played, dropped, or overwritten by a duplicate).
func (j *JitterBuffer) pruneStale() {
	for len(j.deadlines) > 0 {
		top := j.deadlines[0]
		if e, ok := j.buf[top.seq]; ok && e.deadline.Equal(top.deadline) {
			return
		}
		j.heapPop()
	}
}

// laterFrameOverdue reports whether any buffered frame after next is past
// its deadline. It is only called when buf[next] is absent, so every live
// heap item refers to a frame after next; stale items (popped or overwritten
// frames) are pruned as they surface.
func (j *JitterBuffer) laterFrameOverdue(now time.Time) bool {
	j.pruneStale()
	if len(j.deadlines) == 0 {
		return false
	}
	return !j.deadlines[0].deadline.After(now)
}

// Depth returns the number of buffered frames.
func (j *JitterBuffer) Depth() int { return len(j.buf) }

// Played returns the count of frames delivered in order.
func (j *JitterBuffer) Played() int64 { return j.played }

// Late returns the count of frames dropped for arriving after playout.
func (j *JitterBuffer) Late() int64 { return j.late }

// Missing returns the count of frames skipped as lost.
func (j *JitterBuffer) Missing() int64 { return j.missing }

// seqBefore reports whether a precedes b in RTP sequence space (RFC 3550
// wraparound comparison).
func seqBefore(a, b uint16) bool {
	return a != b && int16(a-b) < 0
}
