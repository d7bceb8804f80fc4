// Package obs is the unified observability layer of the SIPHoc stack: a
// lightweight, allocation-lean metrics registry (atomic counters, gauges and
// fixed-bucket latency histograms) plus a span-based trace recorder that
// follows a call end-to-end through every component — phone, proxy, MANET
// SLP, routing, gateway tunnel and RTP — stitched by SIP Call-ID.
//
// The package is designed around two invariants:
//
//   - Disabled means free. A nil *Observer is the disabled mode; every
//     method on it (and on the nil metric handles it hands out) is a no-op
//     guarded by a single inlineable nil check, so instrumented hot paths
//     pay nothing measurable when observability is off.
//   - Enabled means cheap. Metric handles are resolved once at component
//     construction and updated with single atomic adds; spans are a mutex
//     hit plus one small struct append, and are only recorded on the call
//     signalling path, never per frame.
//
// The measurement model mirrors the paper's evaluation (Figures 4–7): call
// setup delay decomposed into SLP resolution, routing discovery, SIP
// transaction and gateway attach phases.
package obs

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The nil Counter (handed out
// by a disabled Observer) discards updates.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for the nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. The nil Gauge discards updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 for the nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultLatencyBuckets spans the latencies seen across the stack: from the
// sub-millisecond per-hop radio delay up to multi-second discovery timeouts.
var DefaultLatencyBuckets = []time.Duration{
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
}

// Histogram is a fixed-bucket latency histogram. Buckets hold observations
// less than or equal to their bound; observations above the last bound land
// in an implicit +Inf bucket. The nil Histogram discards updates.
type Histogram struct {
	bounds []time.Duration
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	sum    atomic.Int64   // nanoseconds
	n      atomic.Int64
}

func newHistogram(bounds []time.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small and the slice is cache-resident,
	// which beats binary search at these sizes.
	i := 0
	for ; i < len(h.bounds); i++ {
		if d <= h.bounds[i] {
			break
		}
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.n.Add(1)
}

// Count returns the number of samples (0 for the nil Histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Snapshot captures the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count:   h.n.Load(),
		Sum:     time.Duration(h.sum.Load()),
		Buckets: make([]BucketCount, len(h.counts)),
	}
	for i := range h.counts {
		b := BucketCount{Count: h.counts[i].Load()}
		if i < len(h.bounds) {
			b.LE = h.bounds[i]
		} else {
			b.LE = -1 // +Inf
		}
		s.Buckets[i] = b
	}
	return s
}

// BucketCount is one histogram bucket: the count of samples ≤ LE. LE == -1
// marks the +Inf bucket.
type BucketCount struct {
	LE    time.Duration `json:"le"`
	Count int64         `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     time.Duration `json:"sum"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Mean returns the average sample, or 0 with no samples.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile estimates the q-th quantile (0 < q ≤ 1) by linear interpolation
// within the bucket containing the target rank. Samples landing in the +Inf
// bucket are reported as the last finite bound — the histogram cannot say
// more — so tail quantiles saturate there. Returns 0 with no samples.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	var lower time.Duration
	for _, b := range s.Buckets {
		if b.Count > 0 && float64(cum)+float64(b.Count) >= rank {
			if b.LE < 0 {
				return lower // +Inf bucket: clamp to the last finite bound
			}
			frac := (rank - float64(cum)) / float64(b.Count)
			return lower + time.Duration(frac*float64(b.LE-lower))
		}
		cum += b.Count
		if b.LE >= 0 {
			lower = b.LE
		}
	}
	return lower
}

// Registry names and owns metrics. Handles are created on first use and
// shared by name, so independent components accumulate into one metric when
// they register the same name.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds (DefaultLatencyBuckets when nil) if needed.
func (r *Registry) Histogram(name string, bounds []time.Duration) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// RegistrySnapshot is a stable, JSON-serialisable copy of every metric.
// Map keys marshal in sorted order, so successive snapshots diff cleanly.
type RegistrySnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures all metrics at once. A nil registry yields the zero
// snapshot.
func (r *Registry) Snapshot() RegistrySnapshot {
	if r == nil {
		return RegistrySnapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := RegistrySnapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// JSON renders the snapshot as indented JSON.
func (s RegistrySnapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
