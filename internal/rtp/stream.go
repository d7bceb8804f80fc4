package rtp

import (
	"sync"
	"sync/atomic"
	"time"

	"siphoc/internal/clock"
	"siphoc/internal/netem"
)

// Session is one end of an RTP media session bound to a UDP-like port: it
// can stream synthetic voice toward the peer and it measures everything that
// arrives. Close releases the port.
//
// A session owns no goroutine and no timer. Its outgoing streams are tasks on
// its host's scheduler, keyed by the host's ID, and arriving packets are
// handled inline on the delivery that brought them — both on the one shard
// worker that runs everything else of that host.
type Session struct {
	conn  *netem.Conn
	clk   clock.Clock
	sched *clock.Scheduler
	key   string
	ssrc  uint32

	sent   atomic.Int64
	played atomic.Int64

	mu          sync.Mutex
	recv        Receiver
	jb          JitterBuffer
	onFirstRecv func(time.Time) // one-shot; cleared after firing
	// streams starts on inline, room for the one stream a call sends.
	streams []*Stream
	inline  [1]*Stream
	closed  bool
}

// NewSession wraps conn and starts receiving. Incoming frames pass through
// a playout jitter buffer before being counted as played.
func NewSession(conn *netem.Conn, ssrc uint32) *Session {
	s := &Session{
		conn: conn, ssrc: ssrc,
		clk:   conn.Host().Clock(),
		sched: conn.Host().Sched(),
		key:   string(conn.Host().ID()),
	}
	s.jb.init(DefaultPlayoutDelay)
	s.streams = s.inline[:0]
	conn.Handle(s.onDatagram)
	return s
}

// Port returns the local RTP port.
func (s *Session) Port() uint16 { return s.conn.LocalPort() }

// OnFirstRecv registers a one-shot hook invoked (on the delivery worker)
// with the arrival time of the first RTP packet. If a packet already arrived,
// fn fires immediately with that time. Used to close the media-start span of
// a call trace.
func (s *Session) OnFirstRecv(fn func(time.Time)) {
	s.mu.Lock()
	fired := s.recv.Stats().Received > 0
	if !fired {
		s.onFirstRecv = fn
	}
	s.mu.Unlock()
	if fired {
		fn(s.clk.Now())
	}
}

// StartStream begins transmitting `frames` voice frames to dst:port paced at
// the G.711 frame rate (20 ms) without blocking; the returned handle reports
// progress and Wait blocks until done. The first frame is due immediately.
func (s *Session) StartStream(dst netem.NodeID, port uint16, frames int) *Stream {
	st := &Stream{
		sess: s, dst: dst, port: port, frames: frames,
	}
	st.done.Init(s.clk)
	s.mu.Lock()
	if s.closed || frames <= 0 {
		s.mu.Unlock()
		st.finish()
		return st
	}
	s.streams = append(s.streams, st)
	s.mu.Unlock()
	st.task.Init(st.step, st.finish)
	st.due = s.clk.Now()
	s.sched.At(s.key, &st.task, st.due)
	return st
}

// SendStream transmits `frames` voice frames to dst:port paced at the G.711
// frame rate (20 ms), blocking until done or the session closes. It returns
// the number of frames handed to the network.
func (s *Session) SendStream(dst netem.NodeID, port uint16, frames int) int {
	return s.StartStream(dst, port, frames).Wait()
}

func (s *Session) removeStream(st *Stream) {
	s.mu.Lock()
	for i, cur := range s.streams {
		if cur == st {
			last := len(s.streams) - 1
			s.streams[i] = s.streams[last]
			s.streams[last] = nil
			s.streams = s.streams[:last]
			break
		}
	}
	s.mu.Unlock()
}

// Sent returns the number of frames transmitted so far.
func (s *Session) Sent() int64 { return s.sent.Load() }

// Stats returns the receive-side quality snapshot.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recv.Stats()
}

// PlayoutStats returns jitter-buffer counters: frames played in order,
// frames dropped for arriving after their playout slot, and gaps skipped as
// lost.
func (s *Session) PlayoutStats() (played, late, missing int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Flush anything due up to now so callers see current numbers.
	s.played.Add(int64(s.jb.FlushDue(s.clk.Now())))
	return s.played.Load(), s.jb.Late(), s.jb.Missing()
}

// Close stops the session: active streams finish immediately (their waiters
// see the frames sent so far) and the port is released.
func (s *Session) Close() {
	var scratch [len(s.inline)]*Stream
	s.mu.Lock()
	s.closed = true
	streams := append(scratch[:0], s.streams...)
	s.mu.Unlock()
	for _, st := range streams {
		st.Stop()
	}
	s.conn.Close()
}

// onDatagram is the receive side, called by conn for every arriving datagram.
func (s *Session) onDatagram(dg *netem.Datagram) {
	// Zero-copy parse: the payload borrows dg.Data, which is the network's
	// again when this returns (see netem.Frame). The session plays by count
	// and never reads a buffered payload, so only the header is buffered.
	var pkt Packet
	if err := ParseInto(&pkt, dg.Data); err != nil {
		return
	}
	now := s.clk.Now()
	s.mu.Lock()
	first := s.onFirstRecv
	s.onFirstRecv = nil
	s.recv.Observe(&pkt, now)
	pkt.Payload = nil
	s.jb.Put(&pkt, now)
	played := s.jb.FlushDue(now)
	s.mu.Unlock()
	s.played.Add(int64(played))
	if first != nil {
		first(now)
	}
}

// Stream is a handle to one in-flight voice stream started by
// Session.StartStream. Wait blocks until the stream finishes (all frames
// sent, the stream stopped, or the session or its network closed) and returns
// the number of frames handed to the network.
type Stream struct {
	sess   *Session
	dst    netem.NodeID
	port   uint16
	frames int

	// task is the stream's place on the scheduler, bound once in StartStream
	// so steady-state pacing allocates nothing. due is the deadline of the
	// frame it is queued for: frame i is due at start + i*FrameDuration
	// whatever the lateness of frame i-1.
	task clock.Task
	due  time.Time
	i    int

	// payload/wire/pkt are per-stream scratch reused every frame so the
	// send path allocates nothing.
	payload [PayloadBytes]byte
	wire    [headerLen + PayloadBytes]byte
	pkt     Packet

	sent atomic.Int64
	done clock.Gate
}

// Wait blocks until the stream finishes and returns the frames sent.
func (st *Stream) Wait() int {
	clock.Wait("rtp.Stream.Wait", -1, &st.done)
	return int(st.sent.Load())
}

// Sent returns the frames handed to the network so far.
func (st *Stream) Sent() int { return int(st.sent.Load()) }

// Stop cancels the stream: no further frames are sent and Wait unblocks.
func (st *Stream) Stop() {
	st.task.Stop()
	st.finish()
}

// finish releases the stream's waiters. It is also the task's dropped hook:
// a stream still queued when the network's scheduler closes finishes with the
// frames sent so far.
func (st *Stream) finish() {
	st.done.Open()
	st.sess.removeStream(st)
}

// step sends the stream's next frame and queues itself for the one after.
// Called only from the host's shard worker.
func (st *Stream) step(time.Time) {
	s := st.sess
	st.pkt = Packet{
		PayloadType: PayloadTypePCMU,
		Seq:         uint16(st.i),
		Timestamp:   uint32(st.i) * SamplesPerFrame,
		SSRC:        s.ssrc,
		Payload:     AppendVoicePayload(st.payload[:0], uint32(st.i), s.clk.Now()),
	}
	if err := s.conn.WriteTo(st.pkt.AppendTo(st.wire[:0]), st.dst, st.port); err == nil {
		st.sent.Add(1)
	}
	s.sent.Add(1)
	st.i++
	if st.i == st.frames {
		st.finish()
		return
	}
	st.due = st.due.Add(FrameDuration)
	s.sched.At(s.key, &st.task, st.due)
}
