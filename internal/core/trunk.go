package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
	"siphoc/internal/rtp"
)

// TrunkPort is the Internet-side port trunk-enabled gateways exchange
// aggregated media frames on.
const TrunkPort = 9100

// Trunk frame wire format:
//
//	kind u8 | count u16 | { len u16 | marshalled netem datagram }*
//
// Each entry is a whole tunnelled datagram exactly as it would have crossed
// the Internet on its own; trunking changes packaging, not payload bytes, so
// the receiving side reproduces the untrunked byte stream bit for bit.
const (
	trunkFrameKind = 1
	trunkHeaderLen = 3
)

// newTrunkFrame resets buf to an empty frame with the header reserved.
func newTrunkFrame(buf []byte) []byte {
	return append(buf[:0], 0, 0, 0)
}

// appendTrunkPayload appends one marshalled datagram to a frame body.
// Allocation-free once the frame's capacity has grown to its working set.
func appendTrunkPayload(frame []byte, payload []byte) []byte {
	frame = binary.BigEndian.AppendUint16(frame, uint16(len(payload)))
	return append(frame, payload...)
}

// finishTrunkFrame stamps the header of a frame built with
// appendTrunkPayload and returns the wire-ready bytes.
func finishTrunkFrame(frame []byte, count uint16) []byte {
	frame[0] = trunkFrameKind
	binary.BigEndian.PutUint16(frame[1:trunkHeaderLen], count)
	return frame
}

// walkTrunkFrame calls fn for every payload in a received frame, in order.
// The payload slices alias frame. Allocation-free.
func walkTrunkFrame(frame []byte, fn func(payload []byte)) error {
	if len(frame) < trunkHeaderLen || frame[0] != trunkFrameKind {
		return fmt.Errorf("core: not a trunk frame")
	}
	count := int(binary.BigEndian.Uint16(frame[1:trunkHeaderLen]))
	rest := frame[trunkHeaderLen:]
	for i := 0; i < count; i++ {
		if len(rest) < 2 {
			return fmt.Errorf("core: trunk frame truncated at entry %d", i)
		}
		n := int(binary.BigEndian.Uint16(rest[:2]))
		rest = rest[2:]
		if len(rest) < n {
			return fmt.Errorf("core: trunk payload %d truncated", i)
		}
		fn(rest[:n])
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("core: %d trailing bytes after trunk frame", len(rest))
	}
	return nil
}

// When two trunk-enabled gateways carry concurrent tunnelled flows toward
// each other, the sender batches every datagram of a batching window into one
// trunk frame instead of paying per-RTP-packet Internet datagram overhead.
// The window is one media frame, so trunking adds at most one frame of
// queueing delay — and none at all to a flow that is alone on its trunk. A
// flow flushes early rather than let a frame exceed trunkMaxFrame bytes, and
// an oversized single payload bypasses the trunk.
const (
	trunkInterval = rtp.FrameDuration
	trunkMaxFrame = netem.MTU - 128
)

// TrunkStats counts trunk activity on one gateway.
type TrunkStats struct {
	FramesSent        int64 // trunk frames sent to peer gateways
	FramesRecv        int64 // trunk frames received
	PayloadsBatched   int64 // tunnelled datagrams folded into trunk frames
	PayloadsDelivered int64 // datagrams fanned back out of received frames
	InlineFlushes     int64 // flushes sent immediately (flow was idle)
	PacedFlushes      int64 // flushes fired by the scheduler at window end
}

type trunkCounters struct {
	framesSent        atomic.Int64
	framesRecv        atomic.Int64
	payloadsBatched   atomic.Int64
	payloadsDelivered atomic.Int64
	inlineFlushes     atomic.Int64
	pacedFlushes      atomic.Int64
}

func (c *trunkCounters) snapshot() TrunkStats {
	return TrunkStats{
		FramesSent:        c.framesSent.Load(),
		FramesRecv:        c.framesRecv.Load(),
		PayloadsBatched:   c.payloadsBatched.Load(),
		PayloadsDelivered: c.payloadsDelivered.Load(),
		InlineFlushes:     c.inlineFlushes.Load(),
		PacedFlushes:      c.pacedFlushes.Load(),
	}
}

// gatewayTrunk is the trunk engine of one gateway: a listener on the
// gateway's Internet host plus one paced flow per destination gateway. It
// owns no goroutine: frames arrive on the listener's delivery, and a deferred
// flush is a task on the Internet host's shard of its network's scheduler.
type gatewayTrunk struct {
	g     *GatewayProvider
	conn  *netem.Conn
	sched *clock.Scheduler
	key   string

	mu     sync.Mutex
	flows  map[netem.NodeID]*trunkFlow
	closed bool

	stats trunkCounters
	// scratch is the datagram header the receive side decodes each payload
	// into; conn serializes onFrame, so one is enough.
	scratch netem.Datagram
}

// trunkFlow batches datagrams toward one destination gateway. The flush
// policy keeps trunking invisible to a lone stream: a payload arriving on an
// idle flow whose window has already elapsed is sent inline immediately, so
// single-stream timing is identical to the untrunked path; only payloads that
// arrive while the window is open wait for its end (a scheduler task).
type trunkFlow struct {
	t   *gatewayTrunk
	dst netem.NodeID

	mu        sync.Mutex
	buf       []byte // frame under construction (header reserved)
	count     uint16
	lastFlush time.Time
	scheduled bool
	task      clock.Task
}

func newGatewayTrunk(g *GatewayProvider) (*gatewayTrunk, error) {
	conn, err := g.selfHost.Listen(TrunkPort)
	if err != nil {
		return nil, fmt.Errorf("core: trunk bind: %w", err)
	}
	t := &gatewayTrunk{
		g:     g,
		conn:  conn,
		sched: g.selfHost.Sched(),
		key:   string(g.selfHost.ID()),
		flows: make(map[netem.NodeID]*trunkFlow),
	}
	conn.Handle(t.onFrame)
	return t, nil
}

func (t *gatewayTrunk) close() {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	t.conn.Close()
}

func (t *gatewayTrunk) flow(dst netem.NodeID) *trunkFlow {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := t.flows[dst]
	if f == nil {
		f = &trunkFlow{t: t, dst: dst, buf: newTrunkFrame(nil)}
		f.task.Init(f.fire, nil)
		t.flows[dst] = f
	}
	return f
}

// enqueue hands one marshalled tunnelled datagram to the trunk toward dst.
// It reports false when the payload cannot be trunked (oversized) and must
// travel the untrunked path instead.
func (t *gatewayTrunk) enqueue(dst netem.NodeID, payload []byte) bool {
	if trunkHeaderLen+2+len(payload) > trunkMaxFrame {
		return false
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return false
	}
	t.mu.Unlock()
	t.stats.payloadsBatched.Add(1)
	t.flow(dst).enqueue(payload)
	return true
}

func (f *trunkFlow) enqueue(payload []byte) {
	t := f.t
	now := t.g.clk.Now()
	f.mu.Lock()
	if f.count == 0 && !now.Before(f.lastFlush.Add(trunkInterval)) {
		// Idle flow, window elapsed: send immediately so a lone stream sees
		// exactly the untrunked packet timing.
		f.buf = appendTrunkPayload(f.buf, payload)
		f.count++
		f.flushLocked(now, &t.stats.inlineFlushes)
		f.mu.Unlock()
		return
	}
	if f.count > 0 && len(f.buf)+2+len(payload) > trunkMaxFrame {
		// Window still open but the frame is full: flush early.
		f.flushLocked(now, &t.stats.pacedFlushes)
	}
	f.buf = appendTrunkPayload(f.buf, payload)
	f.count++
	if !f.scheduled {
		f.scheduled = true
		due := f.lastFlush.Add(trunkInterval)
		if due.Before(now) {
			due = now
		}
		t.sched.At(t.key, &f.task, due)
	}
	f.mu.Unlock()
}

// fire runs on the shard worker at the end of a batching window. It is
// one-shot: the flow parks until the next enqueue queues it again, so an idle
// trunk costs the scheduler nothing.
func (f *trunkFlow) fire(time.Time) {
	now := f.t.g.clk.Now()
	f.mu.Lock()
	f.scheduled = false
	if f.count > 0 {
		f.flushLocked(now, &f.t.stats.pacedFlushes)
	}
	f.mu.Unlock()
}

func (f *trunkFlow) flushLocked(now time.Time, kind *atomic.Int64) {
	t := f.t
	frame := finishTrunkFrame(f.buf, f.count)
	if err := t.conn.WriteTo(frame, f.dst, TrunkPort); err == nil {
		t.stats.framesSent.Add(1)
		kind.Add(1)
	}
	f.buf = newTrunkFrame(f.buf)
	f.count = 0
	f.lastFlush = now
}

// onFrame is the receive side, called by conn for every arriving trunk frame.
func (t *gatewayTrunk) onFrame(dg *netem.Datagram) {
	t.stats.framesRecv.Add(1)
	_ = walkTrunkFrame(dg.Data, t.deliver)
}

func (t *gatewayTrunk) deliver(payload []byte) {
	if err := netem.UnmarshalDatagramInto(&t.scratch, payload); err != nil {
		return
	}
	t.stats.payloadsDelivered.Add(1)
	t.g.deliverTrunked(&t.scratch)
}
