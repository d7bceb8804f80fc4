package rtp

import (
	"testing"
	"testing/quick"
	"time"

	"siphoc/internal/netem"
)

// parse decodes into a fresh packet, whose payload aliases b.
func parse(b []byte) (*Packet, error) {
	p := new(Packet)
	return p, ParseInto(p, b)
}

func TestPacketRoundTrip(t *testing.T) {
	in := NewVoiceFrame(0xdeadbeef, 42, time.Unix(0, 123456789))
	out, err := parse(in.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if out.Seq != 42 || out.SSRC != 0xdeadbeef || out.PayloadType != PayloadTypePCMU {
		t.Fatalf("out = %+v", out)
	}
	if out.Timestamp != 42*SamplesPerFrame {
		t.Fatalf("timestamp = %d", out.Timestamp)
	}
	sent, ok := out.SentAt()
	if !ok || sent.UnixNano() != 123456789 {
		t.Fatalf("sentAt = %v %v", sent, ok)
	}
}

func TestPacketQuick(t *testing.T) {
	f := func(pt uint8, seq uint16, ts, ssrc uint32, payload []byte) bool {
		in := &Packet{PayloadType: pt & 0x7f, Seq: seq, Timestamp: ts, SSRC: ssrc, Payload: payload}
		out, err := parse(in.AppendTo(nil))
		if err != nil {
			return false
		}
		if len(in.Payload) == 0 && len(out.Payload) == 0 {
			in.Payload, out.Payload = nil, nil
		}
		return out.PayloadType == in.PayloadType && out.Seq == seq &&
			out.Timestamp == ts && out.SSRC == ssrc && string(out.Payload) == string(in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParseRejects(t *testing.T) {
	if _, err := parse([]byte{1, 2, 3}); err == nil {
		t.Fatal("short packet accepted")
	}
	bad := NewVoiceFrame(1, 1, time.Now()).AppendTo(nil)
	bad[0] = 0 // version 0
	if _, err := parse(bad); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestReceiverLossAccounting(t *testing.T) {
	var r Receiver
	base := time.Unix(1000, 0)
	for _, seq := range []uint32{0, 1, 3, 4, 7} { // 2, 5, 6 lost
		p := NewVoiceFrame(1, seq, base.Add(time.Duration(seq)*FrameDuration))
		r.Observe(p, base.Add(time.Duration(seq)*FrameDuration+10*time.Millisecond))
	}
	s := r.Stats()
	if s.Expected != 8 || s.Received != 5 || s.Lost != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.LossRate < 0.37 || s.LossRate > 0.38 {
		t.Fatalf("loss rate = %f", s.LossRate)
	}
	if s.AvgDelay != 10*time.Millisecond {
		t.Fatalf("avg delay = %v", s.AvgDelay)
	}
}

func TestReceiverSequenceWrap(t *testing.T) {
	var r Receiver
	base := time.Unix(1000, 0)
	for i := 65530; i < 65546; i++ { // crosses the uint16 boundary
		p := &Packet{Seq: uint16(i), Payload: make([]byte, PayloadBytes)}
		r.Observe(p, base)
	}
	s := r.Stats()
	if s.Expected != 16 || s.Lost != 0 {
		t.Fatalf("wrap stats = %+v", s)
	}
}

func TestEModelShape(t *testing.T) {
	// Perfect network: near-toll quality.
	r0, mos0 := emodel(10*time.Millisecond, 0)
	if r0 < 90 || mos0 < 4.2 {
		t.Fatalf("clean call: R=%f MOS=%f", r0, mos0)
	}
	// Heavy loss degrades monotonically.
	_, mosLoss := emodel(10*time.Millisecond, 0.10)
	if mosLoss >= mos0 {
		t.Fatalf("10%% loss did not degrade MOS: %f vs %f", mosLoss, mos0)
	}
	// Long delay degrades too.
	_, mosDelay := emodel(400*time.Millisecond, 0)
	if mosDelay >= mos0 {
		t.Fatalf("400ms delay did not degrade MOS: %f vs %f", mosDelay, mos0)
	}
	// MOS stays in [1, 4.5].
	for _, loss := range []float64{0, 0.5, 1} {
		for _, d := range []time.Duration{0, time.Second} {
			_, mos := emodel(d, loss)
			if mos < 1 || mos > 4.5 {
				t.Fatalf("MOS out of range: %f (loss=%f d=%v)", mos, loss, d)
			}
		}
	}
}

func TestJitterGrowsWithVariance(t *testing.T) {
	base := time.Unix(1000, 0)
	// Steady arrivals: jitter ~0.
	var steady Receiver
	for i := range uint32(50) {
		p := NewVoiceFrame(1, i, base.Add(time.Duration(i)*FrameDuration))
		steady.Observe(p, base.Add(time.Duration(i)*FrameDuration+5*time.Millisecond))
	}
	// Alternating delays: jitter > 0.
	var jittery Receiver
	for i := range uint32(50) {
		p := NewVoiceFrame(1, i, base.Add(time.Duration(i)*FrameDuration))
		extra := time.Duration(i%2) * 15 * time.Millisecond
		jittery.Observe(p, base.Add(time.Duration(i)*FrameDuration+5*time.Millisecond+extra))
	}
	if steady.Stats().Jitter >= jittery.Stats().Jitter {
		t.Fatalf("jitter ordering wrong: steady=%v jittery=%v",
			steady.Stats().Jitter, jittery.Stats().Jitter)
	}
	if jittery.Stats().Jitter < time.Millisecond {
		t.Fatalf("jittery stream jitter = %v, want >= 1ms", jittery.Stats().Jitter)
	}
}

func TestSessionOverNetwork(t *testing.T) {
	n := netem.NewNetwork(netem.Config{BaseDelay: 200 * time.Microsecond})
	defer n.Close()
	ha, err := n.AddHost("a", netem.Position{})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := n.AddHost("b", netem.Position{X: 10})
	if err != nil {
		t.Fatal(err)
	}
	ha.SetRouteProvider(directRoutes{})
	hb.SetRouteProvider(directRoutes{})
	ca, err := ha.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := hb.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	sa := NewSession(ca, 1)
	sb := NewSession(cb, 2)
	defer sa.Close()
	defer sb.Close()

	const frames = 25
	sent := sa.SendStream("b", cb.LocalPort(), frames)
	if sent != frames {
		t.Fatalf("sent = %d", sent)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if sb.Stats().Received == frames {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := sb.Stats()
	if st.Received != frames || st.Lost != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MOS < 4.0 {
		t.Fatalf("clean 1-hop call MOS = %f", st.MOS)
	}
}

type directRoutes struct{}

func (directRoutes) NextHop(dst netem.NodeID) (netem.NodeID, bool) { return dst, true }
func (directRoutes) RequestRoute(dst netem.NodeID, done func(bool)) {
	done(true)
}
