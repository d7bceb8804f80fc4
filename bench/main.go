// Command bench is the repository's benchmark: open-loop, fixed-rate call
// workloads against the public siphoc facade on the real clock. See README.md
// for the workloads, the metrics and how the layers map onto them.
//
// The process that parses the command line measures nothing. It re-executes
// itself once per phase — a set-up on its own, a set-up followed by a
// measured window, the isolated layer drivers — strictly one after another,
// so that every measurement starts from a fresh heap and goroutine set with
// GOMAXPROCS=2, and merges what the children print.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"siphoc"
)

// setupRuns is how many times one end-to-end run sets the workload up;
// setup_s is their median.
const setupRuns = 3

// childReport is what one phase prints as its last line of standard output.
type childReport struct {
	Workload string             `json:"workload"`
	Phase    string             `json:"phase"`
	Seed     int64              `json:"seed"`
	WindowS  float64            `json:"window_s"` // wall length of the measured window
	Calls    int                `json:"calls"`
	Failed   int                `json:"failed"`
	Failures map[string]int     `json:"failures,omitempty"` // failed calls by reason
	Invalid  []string           `json:"invalid,omitempty"`  // why this run is not a measurement
	Metrics  map[string]float64 `json:"metrics"`
	Samples  map[string]int     `json:"samples,omitempty"`  // sample count behind each percentile
	Attempts int                `json:"attempts,omitempty"` // set by the parent: how often the phase was run
}

// stamp says where and on what a result was measured.
type stamp struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

const childProcs = 2

func hostStamp() stamp {
	s := stamp{Commit: "unknown", Go: runtime.Version(), CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: childProcs}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				s.Commit = kv.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				s.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return s
}

func main() {
	var (
		name      = flag.String("workload", "", "run one workload and print the driver's JSON line (default: all four, as tables)")
		seed      = flag.Int64("seed", 1, "drives phone placement, pair choice and the radio's loss draws")
		seconds   = flag.Float64("seconds", 20, "length of the measured window")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, observability off; 1: per-layer ledger")
		selfcheck = flag.Int("selfcheck", 0, "run every workload this many times and compare each metric's spread with its bound")
		phase     = flag.String("phase", "", "internal: the phase a child process runs")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *selfcheck, *phase); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace, selfcheck int, phase string) error {
	if phase != "" {
		return runPhase(phase, name, seed, seconds)
	}
	if selfcheck > 0 {
		return runSelfcheck(selfcheck, seed, seconds)
	}
	if name != "" {
		w, err := workloadByName(name)
		if err != nil {
			return err
		}
		return runForDriver(w, seed, seconds, trace)
	}
	return runAll(seed, seconds)
}

// runPhase is the body of a child process.
func runPhase(phase, name string, seed int64, seconds float64) error {
	rep := childReport{Workload: name, Phase: phase, Seed: seed, Metrics: map[string]float64{}}
	if phase == "layers" {
		if err := measureLayers(rep.Metrics, seed); err != nil {
			return err
		}
		return emit(rep)
	}
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	baseline := runtime.NumGoroutine()
	d, set, err := setUp(w, seed, phase == "traced")
	if err != nil {
		return fmt.Errorf("%s set-up: %w", name, err)
	}
	rep.Metrics["setup_s"] = set.total.Seconds()
	if phase != "setup" {
		calls := int(math.Round(w.rate * seconds))
		win := d.runWindow(w, plan(d.pairs, calls, seed))
		rep.WindowS = win.after.wall.Sub(win.before.wall).Seconds()
		rep.Calls = len(win.calls)
		rep.Failures = map[string]int{}
		for _, c := range win.calls {
			if c.failure != "" {
				rep.Failed++
				rep.Failures[c.failure]++
			}
		}
		if win.aborted {
			rep.Invalid = append(rep.Invalid, fmt.Sprintf("stopped after %d of %d calls because one failed", len(win.calls), calls))
		} else {
			var m map[string]float64
			m, rep.Samples = summarise(w, d, set, win)
			for k, v := range m {
				rep.Metrics[k] = v
			}
			// A saturated or failing run is not a measurement of anything.
			if v := m["call_success_ratio"]; v < 0.99 {
				rep.Invalid = append(rep.Invalid, fmt.Sprintf("call_success_ratio %.4f < 0.99", v))
			}
			if v := m["gen.late_p95_ms"]; v > 10 {
				rep.Invalid = append(rep.Invalid, fmt.Sprintf("gen.late_p95_ms %.2f > 10", v))
			}
			if v := m["host.cpu_util"]; v > 1 {
				rep.Invalid = append(rep.Invalid, fmt.Sprintf("host.cpu_util %.2f > 1 core", v))
			}
		}
	}
	d.close()
	if err := siphoc.SettleGoroutines(baseline, 2, 10*time.Second); err != nil {
		rep.Invalid = append(rep.Invalid, err.Error())
	}
	return emit(rep)
}

func emit(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// child re-executes this binary for one phase and parses the report on the
// last line of its standard output. Its standard error passes through.
func child(phase, name string, seed int64, seconds float64) (childReport, error) {
	var rep childReport
	exe, err := os.Executable()
	if err != nil {
		return rep, err
	}
	cmd := exec.Command(exe, "-phase", phase, "-workload", name,
		"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", childProcs))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rep, fmt.Errorf("%s %s: %w", name, phase, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return rep, fmt.Errorf("%s %s: bad report: %w", name, phase, err)
	}
	return rep, nil
}

// maxAttempts is how often a phase is tried before its outcome stands. On a
// shared 2-core VM the hypervisor now and then stalls the process for longer
// than AODV's 150 ms link-break limit, routes flap, and the calls in flight
// fail; and every AODV route rediscovery over three or more hops has a small
// chance of a 50 ms routing loop (see buildGateway). Such a window measured
// the disturbance, not the code, so a phase that errors, is invalid or has a
// failed call is run again from a fresh process. A defect that fails calls
// steadily fails every attempt.
const maxAttempts = 3

func attempt(phase, name string, seed int64, seconds float64) (rep childReport, err error) {
	for try := 1; try <= maxAttempts; try++ {
		rep, err = child(phase, name, seed, seconds)
		rep.Attempts = try
		if err == nil && len(rep.Invalid) == 0 && rep.Failed == 0 {
			break
		}
		fmt.Fprintf(os.Stderr, "bench: %s %s attempt %d of %d disturbed: err=%v invalid=%v failures=%v\n",
			name, phase, try, maxAttempts, err, rep.Invalid, rep.Failures)
	}
	return rep, err
}

// endToEndRun measures one workload with observability off: setupRuns-1
// set-ups on their own, then a set-up followed by the window. setup_s is the
// median over all of them.
func endToEndRun(w *workload, seed int64, seconds float64) (childReport, error) {
	var setups []float64
	for range setupRuns - 1 {
		rep, err := attempt("setup", w.name, seed, seconds)
		if err != nil || len(rep.Invalid) > 0 {
			return rep, err
		}
		setups = append(setups, rep.Metrics["setup_s"])
	}
	rep, err := attempt("window", w.name, seed, seconds)
	if err != nil || len(rep.Invalid) > 0 {
		return rep, err
	}
	rep.Metrics["setup_s"] = median(append(setups, rep.Metrics["setup_s"]))
	rep.Metrics = keep(rep.Metrics, endToEnd)
	return rep, nil
}

// tracedRun produces the per-layer ledger of one workload: an untraced and a
// traced window of half the length each (their ratio is the observability
// overhead), then the isolated layer drivers. Where the traced window
// measured a layer timing on the workload itself, it replaces the one the
// drivers took on their reference scenario.
func tracedRun(w *workload, seed int64, seconds float64) (childReport, error) {
	plain, err := attempt("window", w.name, seed, seconds/2)
	if err != nil || len(plain.Invalid) > 0 {
		return plain, err
	}
	traced, err := attempt("traced", w.name, seed, seconds/2)
	if err != nil || len(traced.Invalid) > 0 {
		return traced, err
	}
	layers, err := attempt("layers", w.name, seed, seconds)
	if err != nil {
		return layers, err
	}
	for k, v := range traced.Metrics {
		layers.Metrics[k] = v
	}
	traced.Metrics = layers.Metrics
	traced.Metrics["obs.cpu_overhead_ratio"] = ratio(traced.Metrics["host.cpu_ms_per_call"], plain.Metrics["host.cpu_ms_per_call"])
	traced.Metrics["obs.allocs_overhead_ratio"] = ratio(traced.Metrics["allocs_per_call"], plain.Metrics["allocs_per_call"])
	traced.Metrics["gen.window_attempts"] = float64(traced.Attempts)
	traced.Metrics = keep(traced.Metrics, perLayer)
	return traced, nil
}

// keep returns the entries of m that defs names; a name m lacks is a bug in
// this program and panics.
func keep(m map[string]float64, defs []metricDef) map[string]float64 {
	out := make(map[string]float64, len(defs))
	for _, def := range defs {
		v, ok := m[def.Name]
		if !ok {
			panic("bench: metric " + def.Name + " was never measured")
		}
		out[def.Name] = v
	}
	return out
}

// driverLine is the contract's result object.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runForDriver runs one workload and prints the driver's JSON line last. An
// invalid run still prints it, with correct=false, and exits non-zero.
func runForDriver(w *workload, seed int64, seconds float64, trace int) error {
	measure, defs := endToEndRun, endToEnd
	if trace != 0 {
		measure, defs = tracedRun, perLayer
	}
	rep, err := measure(w, seed, seconds)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d on %+v: %d calls in %.1f s\n", w.name, seed, hostStamp(), rep.Calls, rep.WindowS)
	line := driverLine{Correct: len(rep.Invalid) == 0, Attempted: rep.Calls, Failed: rep.Failed, Metrics: map[string]driverValue{}}
	if line.Correct {
		for _, def := range defs {
			line.Metrics[def.Name] = driverValue{rep.Metrics[def.Name], def.Unit}
		}
	}
	if err := emit(line); err != nil {
		return err
	}
	if !line.Correct {
		return notAMeasurement(w, rep)
	}
	return nil
}

func notAMeasurement(w *workload, rep childReport) error {
	return fmt.Errorf("%s: not a measurement: %s (failures: %v)", w.name, strings.Join(rep.Invalid, "; "), rep.Failures)
}

// runAll prints every workload's end-to-end metrics and per-layer ledger as
// tables, stamped with the host, and fails if any run was invalid.
func runAll(seed int64, seconds float64) error {
	st, err := json.Marshal(hostStamp())
	if err != nil {
		return err
	}
	fmt.Printf("stamp %s seed=%d seconds=%g\n", st, seed, seconds)
	for i := range workloads {
		w := &workloads[i]
		for _, mode := range []struct {
			title   string
			measure func(*workload, int64, float64) (childReport, error)
			defs    []metricDef
		}{{"end to end, observability off", endToEndRun, endToEnd}, {"per layer, traced", tracedRun, perLayer}} {
			rep, err := mode.measure(w, seed, seconds)
			if err != nil {
				return err
			}
			if len(rep.Invalid) > 0 {
				return notAMeasurement(w, rep)
			}
			fmt.Printf("\n%s — %s: %d calls, %d failed, window %.1f s\n", w.name, mode.title, rep.Calls, rep.Failed, rep.WindowS)
			for _, def := range mode.defs {
				samples := ""
				if n, ok := rep.Samples[def.Name]; ok {
					samples = fmt.Sprintf("  (n=%d)", n)
				}
				fmt.Printf("  %-40s %14.4f %-6s%s\n", def.Name, rep.Metrics[def.Name], def.Unit, samples)
			}
		}
	}
	return nil
}
