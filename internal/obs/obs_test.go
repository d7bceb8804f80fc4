package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"siphoc/internal/clock"
)

func TestNilObserverIsSafe(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer reports enabled")
	}
	o.Counter("x").Inc()
	o.Counter("x").Add(5)
	o.Gauge("g").Set(3)
	o.Histogram("h", nil).Observe(time.Millisecond)
	h := o.StartSpan("c1", PhaseSetup, "n1")
	if h.Active() {
		t.Fatal("zero span handle reports active")
	}
	h.End("done")
	o.Event("c1", "ev", "n1", "")
	if got := o.Counter("x").Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
	}
	tr := o.Trace("c1")
	if tr == nil || !tr.Empty() {
		t.Fatalf("nil observer trace = %+v", tr)
	}
	if s := o.Snapshot(); len(s.Counters) != 0 {
		t.Fatalf("nil observer snapshot non-empty: %+v", s)
	}
}

func TestRegistrySharedHandlesAndSnapshot(t *testing.T) {
	o := New(nil)
	a := o.Counter("sip.invites")
	b := o.Counter("sip.invites")
	if a != b {
		t.Fatal("same name resolved to different counters")
	}
	a.Inc()
	b.Add(2)
	o.Gauge("tunnels.active").Set(4)
	h := o.Histogram("setup.delay", nil)
	h.Observe(2 * time.Millisecond)
	h.Observe(200 * time.Millisecond)
	h.Observe(time.Minute) // lands in +Inf

	s := o.Snapshot()
	if s.Counters["sip.invites"] != 3 {
		t.Fatalf("counter = %d, want 3", s.Counters["sip.invites"])
	}
	if s.Gauges["tunnels.active"] != 4 {
		t.Fatalf("gauge = %d, want 4", s.Gauges["tunnels.active"])
	}
	hs := s.Histograms["setup.delay"]
	if hs.Count != 3 {
		t.Fatalf("histogram count = %d, want 3", hs.Count)
	}
	if got := hs.Buckets[len(hs.Buckets)-1]; got.LE != -1 || got.Count != 1 {
		t.Fatalf("+Inf bucket = %+v", got)
	}
	var total int64
	for _, b := range hs.Buckets {
		total += b.Count
	}
	if total != hs.Count {
		t.Fatalf("bucket counts sum %d != count %d", total, hs.Count)
	}
	raw, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back RegistrySnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.Counters["sip.invites"] != 3 {
		t.Fatalf("round-tripped counter = %d", back.Counters["sip.invites"])
	}
}

func TestHistogramMean(t *testing.T) {
	var hs HistogramSnapshot
	if hs.Mean() != 0 {
		t.Fatal("empty mean not zero")
	}
	h := newHistogram(nil)
	h.Observe(10 * time.Millisecond)
	h.Observe(20 * time.Millisecond)
	if got := h.Snapshot().Mean(); got != 15*time.Millisecond {
		t.Fatalf("mean = %v", got)
	}
}

func at(base time.Time, off time.Duration) time.Time { return base.Add(off) }

func TestSetupBreakdownTilesWindowExactly(t *testing.T) {
	base := time.Unix(1000, 0)
	o := New(clock.NewFake(base))
	// Setup window 0..100ms; SLP resolve 10..30ms; route discovery 5..40ms
	// (overlaps SLP — SLP wins the 10..30 segment); gateway attach finished
	// before the window (lookback attribution).
	o.RecordSpan(Span{CallID: "c", Phase: PhaseSetup, Node: "a", Start: base, End: at(base, 100*time.Millisecond)})
	o.RecordSpan(Span{CallID: "c", Phase: PhaseSLPResolve, Node: "a", Start: at(base, 10*time.Millisecond), End: at(base, 30*time.Millisecond)})
	o.RecordSpan(Span{Phase: PhaseRouteDiscovery, Node: "a", Start: at(base, 5*time.Millisecond), End: at(base, 40*time.Millisecond)})
	o.RecordSpan(Span{Phase: PhaseGatewayAttach, Node: "a", Start: at(base, -5*time.Second), End: at(base, -4*time.Second)})
	o.RecordSpan(Span{CallID: "c", Phase: PhaseMediaStart, Node: "b", Start: at(base, 100*time.Millisecond), End: at(base, 120*time.Millisecond)})

	tr := o.Trace("c")
	if tr.Empty() {
		t.Fatal("trace empty")
	}
	if got := tr.SetupDuration(); got != 100*time.Millisecond {
		t.Fatalf("setup duration = %v", got)
	}
	want := map[string]time.Duration{
		PhaseSLPResolve:     20 * time.Millisecond,
		PhaseRouteDiscovery: 15 * time.Millisecond, // 5..10 + 30..40
		PhaseSIPTransaction: 65 * time.Millisecond, // remainder
	}
	bd := tr.SetupBreakdown()
	var sum time.Duration
	for _, pd := range bd {
		sum += pd.Duration
		if w, ok := want[pd.Phase]; !ok || w != pd.Duration {
			t.Fatalf("phase %s = %v, want %v", pd.Phase, pd.Duration, want[pd.Phase])
		}
	}
	if sum != tr.SetupDuration() {
		t.Fatalf("breakdown sum %v != setup %v", sum, tr.SetupDuration())
	}
	// The pre-window gateway attach is stitched in as a span but must not
	// consume setup-window time.
	if tr.Phase(PhaseGatewayAttach) != time.Second {
		t.Fatalf("gateway attach raw duration = %v", tr.Phase(PhaseGatewayAttach))
	}
	phases := tr.Phases()
	if got := phases[len(phases)-1]; got.Phase != PhaseMediaStart || got.Duration != 20*time.Millisecond {
		t.Fatalf("media phase = %+v", got)
	}
	if tr.String() == "" {
		t.Fatal("empty rendering")
	}
}

func TestTraceStitchesOnlyOverlappingNodeSpans(t *testing.T) {
	base := time.Unix(2000, 0)
	o := New(clock.NewFake(base))
	o.RecordSpan(Span{CallID: "c", Phase: PhaseSetup, Node: "a", Start: base, End: at(base, 50*time.Millisecond)})
	// A discovery from a much earlier, unrelated call: outside the window,
	// not a gateway attach — must not appear.
	o.RecordSpan(Span{Phase: PhaseRouteDiscovery, Node: "a", Start: at(base, -10*time.Second), End: at(base, -9*time.Second)})
	tr := o.Trace("c")
	if got := tr.Phase(PhaseRouteDiscovery); got != 0 {
		t.Fatalf("stale discovery stitched in: %v", got)
	}
	start, end, ok := tr.Window()
	if !ok || start != base || end != at(base, 50*time.Millisecond) {
		t.Fatalf("window = %v..%v ok=%v", start, end, ok)
	}
}

func TestSpanHandleUsesClock(t *testing.T) {
	clk := clock.NewFake(time.Unix(3000, 0))
	o := New(clk)
	h := o.StartSpan("c9", PhaseSLPResolve, "n")
	clk.Sleep(7 * time.Millisecond)
	h.End("cache-miss")
	tr := o.Trace("c9")
	if got := tr.Phase(PhaseSLPResolve); got != 7*time.Millisecond {
		t.Fatalf("span duration = %v", got)
	}
	if tr.Spans[0].Detail != "cache-miss" {
		t.Fatalf("detail = %q", tr.Spans[0].Detail)
	}
}

func TestTracerBoundsAndEviction(t *testing.T) {
	base := time.Unix(4000, 0)
	o := New(clock.NewFake(base))
	for i := 0; i < maxTracedCalls+10; i++ {
		id := callIDn(i)
		o.RecordSpan(Span{CallID: id, Phase: PhaseSetup, Node: "n", Start: base, End: at(base, time.Millisecond)})
	}
	if !o.Trace(callIDn(0)).Empty() {
		t.Fatal("oldest call not evicted")
	}
	if o.Trace(callIDn(maxTracedCalls + 9)).Empty() {
		t.Fatal("newest call missing")
	}
}

func callIDn(i int) string {
	const digits = "0123456789"
	if i == 0 {
		return "call-0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{digits[i%10]}, b...)
		i /= 10
	}
	return "call-" + string(b)
}

func TestConcurrentRecording(t *testing.T) {
	o := New(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := o.Counter("shared")
			for i := 0; i < 1000; i++ {
				c.Inc()
				o.Histogram("lat", nil).Observe(time.Duration(i) * time.Microsecond)
				h := o.StartSpan("concurrent-call", PhaseSIPLeg, "n")
				h.End("")
			}
		}()
	}
	wg.Wait()
	if got := o.Counter("shared").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := o.Histogram("lat", nil).Count(); got != 8000 {
		t.Fatalf("histogram count = %d", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewRegistry().Histogram("q", []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
	})
	// 8 samples in (0,10], 2 samples in (10,20].
	for range 8 {
		h.Observe(5 * time.Millisecond)
	}
	for range 2 {
		h.Observe(15 * time.Millisecond)
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 6250*time.Microsecond {
		t.Fatalf("p50 = %v, want 6.25ms (interpolated within first bucket)", got)
	}
	if got := s.Quantile(0.9); got != 15*time.Millisecond {
		t.Fatalf("p90 = %v, want 15ms (rank 9 is halfway into the 2-sample bucket)", got)
	}
	if got := s.Quantile(1); got != 20*time.Millisecond {
		t.Fatalf("p100 = %v, want 20ms", got)
	}
	// Samples beyond the last finite bound clamp there.
	h.Observe(time.Hour)
	if got := h.Snapshot().Quantile(1); got != 40*time.Millisecond {
		t.Fatalf("overflow quantile = %v, want clamp to 40ms", got)
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}
