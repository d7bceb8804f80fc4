// Package rtp implements the media plane of a call: RTP packetization
// (RFC 3550 fixed header), a synthetic G.711 µ-law voice source (20 ms
// frames, 160 payload bytes), a jitter-tracking receiver, and call-quality
// estimation via a simplified ITU-T G.107 E-model — the measurement side of
// "does VoIP actually work over this MANET".
package rtp

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// G.711 framing constants: 8 kHz sampling, 20 ms packets.
const (
	PayloadTypePCMU   = 0
	FrameDuration     = 20 * time.Millisecond
	SamplesPerFrame   = 160
	PayloadBytes      = 160
	ClockRate         = 8000
	headerLen         = 12
	timestampTrailLen = 8 // wall-clock send time appended to the payload
)

// Packet is an RTP packet with the fixed 12-byte header.
type Packet struct {
	PayloadType uint8
	Seq         uint16
	Timestamp   uint32 // media clock (8 kHz)
	SSRC        uint32
	Payload     []byte
}

// AppendTo appends the packet's wire encoding to dst and returns the
// extended slice. Callers that reuse dst across frames (the pacer's send
// path) encode with zero allocations in steady state.
func (p *Packet) AppendTo(dst []byte) []byte {
	dst = append(dst, 2<<6, p.PayloadType&0x7f) // version 2, no padding/extension/CSRC
	dst = binary.BigEndian.AppendUint16(dst, p.Seq)
	dst = binary.BigEndian.AppendUint32(dst, p.Timestamp)
	dst = binary.BigEndian.AppendUint32(dst, p.SSRC)
	return append(dst, p.Payload...)
}

// ParseInto decodes an RTP packet into p without copying: p.Payload aliases
// b, so p is good for as long as b is — for a session's receive path, which
// parses the datagram it was lent, until its handler returns (netem.Frame).
func ParseInto(p *Packet, b []byte) error {
	if len(b) < headerLen {
		return fmt.Errorf("rtp: short packet (%d bytes)", len(b))
	}
	if v := b[0] >> 6; v != 2 {
		return fmt.Errorf("rtp: unsupported version %d", v)
	}
	p.PayloadType = b[1] & 0x7f
	p.Seq = binary.BigEndian.Uint16(b[2:4])
	p.Timestamp = binary.BigEndian.Uint32(b[4:8])
	p.SSRC = binary.BigEndian.Uint32(b[8:12])
	p.Payload = b[headerLen:]
	return nil
}

// AppendVoicePayload appends the i-th synthetic G.711 frame payload to dst:
// the first 8 bytes carry the wall-clock send time in nanoseconds (so the
// receiver can measure one-way delay; both ends share the simulation clock),
// the rest a deterministic tone-like pattern. Reusing dst across frames
// synthesizes voice with zero allocations.
func AppendVoicePayload(dst []byte, i uint32, sentAt time.Time) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(sentAt.UnixNano()))
	for j := timestampTrailLen; j < PayloadBytes; j++ {
		dst = append(dst, byte((int(i)+j)%251))
	}
	return dst
}

// NewVoiceFrame builds the i-th packet of a synthetic voice stream in fresh
// buffers. The pacer's send path keeps per-stream buffers instead; this
// constructor remains for tests and one-shot callers.
func NewVoiceFrame(ssrc uint32, i uint32, sentAt time.Time) *Packet {
	return &Packet{
		PayloadType: PayloadTypePCMU,
		Seq:         uint16(i),
		Timestamp:   i * SamplesPerFrame,
		SSRC:        ssrc,
		Payload:     AppendVoicePayload(make([]byte, 0, PayloadBytes), i, sentAt),
	}
}

// SentAt extracts the wall-clock send time embedded by NewVoiceFrame.
func (p *Packet) SentAt() (time.Time, bool) {
	if len(p.Payload) < timestampTrailLen {
		return time.Time{}, false
	}
	ns := binary.BigEndian.Uint64(p.Payload[:timestampTrailLen])
	return time.Unix(0, int64(ns)), true
}

// Receiver accumulates stream statistics: loss from sequence gaps,
// RFC 3550 §6.4.1 interarrival jitter, and one-way delay from the embedded
// send timestamps.
type Receiver struct {
	started    bool
	firstSeq   uint16
	highestSeq uint16
	cycles     uint32
	received   int64
	jitter     float64 // in media-clock units, per RFC 3550
	prevTrans  float64 // previous transit time, media-clock units
	delaySum   time.Duration
	delayMax   time.Duration
	delayCount int64
}

// Observe feeds one received packet arriving at time now.
func (r *Receiver) Observe(p *Packet, now time.Time) {
	if !r.started {
		r.started = true
		r.firstSeq = p.Seq
		r.highestSeq = p.Seq
	} else {
		// Detect wraparound while extending the highest sequence seen.
		if delta := int16(p.Seq - r.highestSeq); delta > 0 {
			if p.Seq < r.highestSeq {
				r.cycles++
			}
			r.highestSeq = p.Seq
		}
	}
	r.received++
	if sent, ok := p.SentAt(); ok {
		d := now.Sub(sent)
		if d >= 0 {
			r.delaySum += d
			r.delayCount++
			if d > r.delayMax {
				r.delayMax = d
			}
		}
		// Interarrival jitter per RFC 3550: J += (|D| - J)/16 where D is
		// the difference of transit times in media-clock units.
		transit := float64(d) / float64(time.Second) * ClockRate
		if r.prevTrans != 0 {
			dd := math.Abs(transit - r.prevTrans)
			r.jitter += (dd - r.jitter) / 16
		}
		r.prevTrans = transit
	}
}

// Stats is a call-quality snapshot.
type Stats struct {
	Expected int64
	Received int64
	Lost     int64
	LossRate float64
	Jitter   time.Duration // interarrival jitter
	AvgDelay time.Duration
	MaxDelay time.Duration
	R        float64 // E-model transmission rating
	MOS      float64 // mean opinion score estimate (1..4.5)
}

// Stats computes the snapshot.
func (r *Receiver) Stats() Stats {
	var s Stats
	if !r.started {
		return s
	}
	extended := int64(r.cycles)<<16 + int64(r.highestSeq)
	s.Expected = extended - int64(r.firstSeq) + 1
	s.Received = r.received
	s.Lost = s.Expected - s.Received
	if s.Lost < 0 {
		s.Lost = 0
	}
	if s.Expected > 0 {
		s.LossRate = float64(s.Lost) / float64(s.Expected)
	}
	s.Jitter = time.Duration(r.jitter / ClockRate * float64(time.Second))
	if r.delayCount > 0 {
		s.AvgDelay = r.delaySum / time.Duration(r.delayCount)
	}
	s.MaxDelay = r.delayMax
	s.R, s.MOS = emodel(s.AvgDelay, s.LossRate)
	return s
}

// EModel computes a simplified ITU-T G.107 E-model rating for G.711 from a
// one-way delay and a loss rate, returning the transmission rating R and
// the MOS estimate. Exposed for experiments that compute loss over a whole
// attempted stream rather than the received sequence span.
func EModel(oneWay time.Duration, loss float64) (r, mos float64) {
	return emodel(oneWay, loss)
}

// emodel computes a simplified ITU-T G.107 E-model rating for G.711:
// R = 93.2 - Id(delay) - Ie(loss), and maps R to MOS.
func emodel(oneWay time.Duration, loss float64) (r, mos float64) {
	d := float64(oneWay) / float64(time.Millisecond)
	// Delay impairment: piecewise-linear approximation.
	id := 0.024 * d
	if d > 177.3 {
		id += 0.11 * (d - 177.3)
	}
	// Equipment impairment for G.711 with random loss (Ie-eff):
	// Ie = 0 at zero loss, rising with a bpl of ~4.3.
	ie := 30 * math.Log(1+15*loss)
	r = 93.2 - id - ie
	if r < 0 {
		r = 0
	}
	switch {
	case r >= 100:
		mos = 4.5
	default:
		mos = 1 + 0.035*r + r*(r-60)*(100-r)*7e-6
	}
	if mos < 1 {
		mos = 1
	}
	return r, mos
}
