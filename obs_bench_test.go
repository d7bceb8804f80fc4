// Benchmarks quantifying the observability layer's overhead on the hot
// paths, in enabled-vs-disabled pairs: `make bench` records them in
// BENCH_obs.json. The budget (DESIGN.md §8) is ≤5% disabled-mode overhead
// on the medium broadcast path and the SIP codec.
package siphoc_test

import (
	"sync/atomic"
	"testing"
	"time"

	"siphoc/internal/netem"
	"siphoc/internal/obs"
	"siphoc/internal/sip"
)

func benchBroadcast64(b *testing.B, o *obs.Observer) {
	b.Helper()
	n := netem.NewNetwork(netem.Config{BaseDelay: 10 * time.Microsecond, Obs: o})
	defer n.Close()
	hosts, err := netem.Grid(n, 8, 8, 70, "g")
	if err != nil {
		b.Fatal(err)
	}
	var delivered atomic.Int64
	for _, h := range hosts {
		if err := h.HandleFrames(netem.KindRouting, func(netem.Frame) { delivered.Add(1) }); err != nil {
			b.Fatal(err)
		}
	}
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	i := 0
	for b.Loop() {
		if err := hosts[i%len(hosts)].SendFrame(netem.Broadcast, netem.KindRouting, payload); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkObsOverheadBroadcast64 compares the 64-node broadcast-storm hot
// path with instrumentation disabled (nil observer: one nil check per frame)
// and enabled (two atomic adds per frame).
func BenchmarkObsOverheadBroadcast64(b *testing.B) {
	b.Run("disabled", func(b *testing.B) { benchBroadcast64(b, nil) })
	b.Run("enabled", func(b *testing.B) { benchBroadcast64(b, obs.New(nil)) })
}

var benchInvite = []byte("INVITE sip:bob@voicehoc.ch SIP/2.0\r\n" +
	"Via: SIP/2.0/UDP 10.0.0.1:5060;branch=z9hG4bK-abc\r\n" +
	"From: \"Alice\" <sip:alice@voicehoc.ch>;tag=1928\r\n" +
	"To: <sip:bob@voicehoc.ch>\r\n" +
	"Call-ID: a84b4c76e66710@10.0.0.1\r\n" +
	"CSeq: 314159 INVITE\r\n" +
	"Contact: <sip:alice@10.0.0.1:5062>\r\n" +
	"Max-Forwards: 70\r\nContent-Length: 0\r\n\r\n")

// BenchmarkObsOverheadSIPParse guards the SIP parser against hook creep: the
// codec deliberately carries no obs hooks (instrumentation sits in the
// transaction layer), so both modes must benchmark identically.
func BenchmarkObsOverheadSIPParse(b *testing.B) {
	for _, mode := range []string{"disabled", "enabled"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := sip.Parse(benchInvite); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObsOverheadSIPMarshal is the marshalling half of the codec guard.
func BenchmarkObsOverheadSIPMarshal(b *testing.B) {
	m := sip.NewRequest(sip.MethodInvite, sip.MustParseURI("sip:bob@voicehoc.ch"))
	m.Via = []*sip.Via{{Transport: "UDP", Host: "10.0.0.1", Port: 5060,
		Params: ";branch=z9hG4bK-abc"}}
	m.From = &sip.NameAddr{URI: sip.MustParseURI("sip:alice@voicehoc.ch")}
	m.From = m.From.WithTag("1928")
	m.To = &sip.NameAddr{URI: sip.MustParseURI("sip:bob@voicehoc.ch")}
	m.CallID = "a84b4c76e66710@10.0.0.1"
	m.CSeq = sip.CSeq{Seq: 314159, Method: sip.MethodInvite}
	for _, mode := range []string{"disabled", "enabled"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				_ = m.AppendTo(nil)
			}
		})
	}
}

// BenchmarkObsOverheadCounter is the raw per-op cost of one counter
// increment: a nil check when disabled, an atomic add when enabled.
func BenchmarkObsOverheadCounter(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		var o *obs.Observer
		c := o.Counter("bench.counter")
		for b.Loop() {
			c.Inc()
		}
	})
	b.Run("enabled", func(b *testing.B) {
		c := obs.New(nil).Counter("bench.counter")
		for b.Loop() {
			c.Inc()
		}
	})
}

// BenchmarkObsOverheadSpan is the raw per-op cost of one traced span
// (start + end with a clock read and a bounded ring insert when enabled).
func BenchmarkObsOverheadSpan(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		var o *obs.Observer
		b.ReportAllocs()
		for b.Loop() {
			o.StartSpan("", "bench.phase", "node").End("")
		}
	})
	b.Run("enabled", func(b *testing.B) {
		o := obs.New(nil)
		b.ReportAllocs()
		for b.Loop() {
			o.StartSpan("", "bench.phase", "node").End("")
		}
	})
}
