package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{1: 1, 20: 1, 21: 2, 50: 3, 95: 5, 100: 5} {
		if got := percentile(slices.Clone(xs), p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample: got %v, want 0", got)
	}
}

// A failed call misses every latency limit: it enters the set-up delay
// distribution at callTimeout and is counted in the sample size.
func TestFailedCallsCountAsTimeout(t *testing.T) {
	calls := make([]callRecord, 100)
	for i := range calls {
		calls[i] = callRecord{setup: 10 * time.Millisecond}
	}
	for i := range 6 {
		calls[i] = callRecord{failure: "establish: timed out", setup: callTimeout}
	}
	delays := setupDelays(calls, func(callRecord) bool { return true })
	if len(delays) != 100 {
		t.Fatalf("sample count %d, want 100 (failed calls included)", len(delays))
	}
	if got := percentile(delays, 95); got != ms(callTimeout) {
		t.Errorf("p95 with 6%% failures = %v ms, want %v", got, ms(callTimeout))
	}
	if got := median(delays); got != 10 {
		t.Errorf("p50 = %v ms, want 10", got)
	}
}

// gatewayPairs has the shape of gateway_calls: 3 MANET phones at 3, 2 and 1
// hops from the gateway, each paired with 3 Internet phones both ways. plan
// never dereferences the endpoints.
func gatewayPairs() []pair {
	var pairs []pair
	for hops := 3; hops >= 1; hops-- {
		for range 3 {
			pairs = append(pairs, pair{hops: hops}, pair{hops: hops, inbound: true})
		}
	}
	return pairs
}

func TestPlanIsSeededAndKeepsTheMix(t *testing.T) {
	pairs := gatewayPairs()
	a, b := plan(pairs, 300, 7), plan(pairs, 300, 7)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave two different call sequences")
	}
	c := plan(pairs, 300, 8)
	if slices.Equal(a, c) {
		t.Fatal("different seeds gave the same call sequence")
	}
	mix := func(seq []int) map[pair]int {
		m := map[pair]int{}
		for _, i := range seq {
			m[pair{hops: pairs[i].hops, inbound: pairs[i].inbound}]++
		}
		return m
	}
	if !reflect.DeepEqual(mix(a), mix(c)) {
		t.Errorf("hop/direction mix depends on the seed: %v vs %v", mix(a), mix(c))
	}
	inbound := 0
	for _, i := range a {
		if pairs[i].inbound {
			inbound++
		}
	}
	if inbound != 100 {
		t.Errorf("%d of 300 calls inbound, want a third", inbound)
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// BENCHMARK.json is what the driver reads and the tables in metrics.go and
// workload.go are what the program reports; they must name the same things.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json  %v\n table %v", m.EndToEnd, endToEnd)
	}
	if !slices.Equal(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json  %v\n table %v", m.PerLayer, perLayer)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, program %q %q", i, m.Workloads[i], w.name, w.why)
		}
	}
	seen := map[string]bool{}
	for _, def := range slices.Concat(endToEnd, perLayer) {
		if seen[def.Name] {
			t.Errorf("metric %s is named twice", def.Name)
		}
		seen[def.Name] = true
	}
}

func TestDriverLineRoundTrip(t *testing.T) {
	in := driverLine{Correct: true, Attempted: 800, Failed: 0, Metrics: map[string]driverValue{}}
	for _, def := range endToEnd {
		in.Metrics[def.Name] = driverValue{Value: 1.25, Unit: def.Unit}
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	var names []string
	for k := range keys {
		names = append(names, k)
	}
	slices.Sort(names)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(names, want) {
		t.Errorf("keys %v, want %v", names, want)
	}
	var out driverLine
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the line:\n in  %+v\n out %+v", in, out)
	}
}

func checkFinite(t *testing.T, got map[string]float64, names []string) {
	t.Helper()
	for _, name := range names {
		v, ok := got[name]
		if !ok {
			t.Errorf("metric %s is missing", name)
		} else if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s = %v", name, v)
		}
	}
}

// tracedOnly are the per-layer metrics a merged traced run adds on top of
// one window and the layer drivers.
var tracedOnly = []string{"obs.cpu_overhead_ratio", "obs.allocs_overhead_ratio", "gen.window_attempts"}

// Every workload runs a 2 s traced window; together with the layer drivers
// that must account for every metric the manifest names.
func TestSmokeEveryMetricIsMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("brings up all four workloads on the real clock")
	}
	layers := map[string]float64{}
	t.Run("layers", func(t *testing.T) {
		if err := measureLayers(layers, 1); err != nil {
			t.Fatal(err)
		}
	})
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			d, set, err := setUp(w, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			defer d.close()
			calls := int(w.rate * 2)
			win := d.runWindow(w, plan(d.pairs, calls, 1))
			got, samples := summarise(w, d, set, win)
			for _, c := range win.calls {
				if c.failure != "" {
					t.Errorf("call %v failed: %s", d.pairs[c.pair], c.failure)
				}
			}
			if n := samples["setup_delay_p50_ms"]; n == 0 || n > calls {
				t.Errorf("setup_delay_p50_ms reports %d samples for %d calls", n, calls)
			}
			got["setup_s"] = set.total.Seconds()
			var want []string
			for _, def := range endToEnd {
				want = append(want, def.Name)
			}
			for _, def := range perLayer {
				if _, fromLayers := layers[def.Name]; !fromLayers && !slices.Contains(tracedOnly, def.Name) {
					want = append(want, def.Name)
				}
			}
			checkFinite(t, got, want)
			for _, def := range endToEnd {
				if got[def.Name] == 0 {
					t.Errorf("end-to-end metric %s is 0", def.Name)
				}
			}
		})
	}
}
