// Command benchcmp diffs a fresh benchmark run against a committed
// BENCH_*.json snapshot (both in cmd/benchjson format) and exits non-zero
// when a guarded metric regresses beyond tolerance:
//
//	benchcmp BENCH_scale.json BENCH_scale.json.new
//
// Guarded metrics are the scale study's sim_convergence_ms and
// tc_fwd_to_conv/node (virtual time, exact for a seed: they may not grow at
// all), allocs/node/s (what creeps when the control plane grows overhead),
// lookup_ms and allocs/op (the overlay registrar's lookup latency and
// allocation bill, gated against BENCH_dht.json), and the scale study's GC
// pressure metrics heap_alloc_mb / gc_pause_ms, and the federation
// workload's failed calls and setup_p99_ms (virtual time, gated against
// BENCH_fed.json). (gc_cycles is reported but not
// gated: at fixed GOGC a smaller live heap is collected more often, so the
// count rises when the program improves.) The time/alloc metrics may grow at
// most 25% over the committed value (allocs/node/s, committed near zero, also
// a few allocations of absolute slack), and an allocs/op committed at zero
// must stay zero, as must a committed zero of failed calls; the noisier GC
// metrics get wider per-metric tolerances.
// Benchmarks present only in the fresh run (new grid sizes) or only in the
// snapshot (retired ones) are reported and skipped.
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// Result mirrors cmd/benchjson's per-line object.
type Result struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"`
}

// Report mirrors cmd/benchjson's document.
type Report struct {
	Package    string   `json:"package,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// guarded lists the metrics the gate watches with the allowed growth factor
// for each; missing metrics are skipped so the tool works for snapshots that
// don't report them. The GC metrics (emitted by BenchmarkControlScale since
// the dense-state routing core) get wider tolerances: heap size and
// especially pause totals are noisier run to run than the time/alloc
// metrics, and the gate exists to catch the routing state growing
// GC-visible again — a regression there shows up as multiples, not
// percentages. They also get an absolute floor: below it a ratio is pure
// noise (a 0.2 ms pause total doubling to 0.5 ms says nothing), so the
// gate only engages once the committed value is large enough to ratio.
var guarded = []struct {
	name      string
	tolerance float64
	floor     float64 // skip the gate when the committed value is below this
	slack     float64 // absolute growth allowed on top of the ratio
}{
	{"sim_convergence_ms", 1.0, 0, 0},
	{"tc_fwd_to_conv/node", 1.0, 0, 0},
	// The steady-state control plane allocates next to nothing per node
	// (frames ride recycled buffers), and a value that close to zero has no
	// ratio to speak of: a collection that empties the free lists mid-window
	// moves it by a multiple. The slack is far below what one allocation per
	// frame costs (70-350 at the committed grid sizes), which is the
	// regression the gate is for.
	{"allocs/node/s", 1.25, 0, 5},
	{"lookup_ms", 1.25, 0, 0},
	{"allocs/op", 1.25, 0, 0},
	// A federation run's failed calls may not grow, and a committed zero
	// stays zero; its setup tail may grow by a quarter, since the default
	// shard count does not replay a run bit for bit.
	{"failed", 1.0, 0, 0},
	{"setup_p99_ms", 1.25, 0, 0},
	{"heap_alloc_mb", 1.5, 8, 0},
	{"gc_pause_ms", 2.0, 1, 0},
}

func load(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp <committed.json> <fresh.json>")
		os.Exit(2)
	}
	committed, err := load(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	fresh, err := load(os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	base := make(map[string]Result, len(committed.Benchmarks))
	for _, b := range committed.Benchmarks {
		base[b.Name] = b
	}
	seen := make(map[string]bool, len(fresh.Benchmarks))
	failed := false
	for _, nb := range fresh.Benchmarks {
		seen[nb.Name] = true
		ob, ok := base[nb.Name]
		if !ok {
			fmt.Printf("%s: new benchmark, no baseline — skipped\n", nb.Name)
			continue
		}
		for _, g := range guarded {
			ov, okOld := ob.Metrics[g.name]
			nv, okNew := nb.Metrics[g.name]
			if !okOld || !okNew || ov < 0 || ov < g.floor {
				continue
			}
			if ov == 0 && g.slack == 0 {
				// Nothing to ratio against: a committed zero (an
				// allocation-free path) is held at zero.
				if nv > 0 {
					failed = true
					fmt.Printf("%s: %s regressed 0 -> %.0f (committed zero)\n", nb.Name, g.name, nv)
				} else {
					fmt.Printf("%s: %s 0 -> 0 ok\n", nb.Name, g.name)
				}
				continue
			}
			if limit := ov*g.tolerance + g.slack; nv > limit {
				failed = true
				fmt.Printf("%s: %s regressed %.4g -> %.4g (limit %.4g)\n", nb.Name, g.name, ov, nv, limit)
			} else {
				fmt.Printf("%s: %s %.4g -> %.4g (limit %.4g) ok\n", nb.Name, g.name, ov, nv, limit)
			}
		}
	}
	for _, ob := range committed.Benchmarks {
		if !seen[ob.Name] {
			fmt.Printf("%s: missing from fresh run — skipped\n", ob.Name)
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchcmp: guarded metrics regressed beyond tolerance")
		os.Exit(1)
	}
}
