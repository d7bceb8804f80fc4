// Package experiments regenerates every figure and evaluation claim of the
// paper as an executable experiment (the index lives in DESIGN.md §4 and
// the measured outcomes in EXPERIMENTS.md). Each experiment writes a
// human-readable report and returns structured results where follow-up
// tooling needs them. Every experiment runs in virtual time on a clock.Fake
// owned by the goroutine that runs it, so its numbers are protocol time,
// exact for its seeds, and two runs print the same report.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"siphoc"
	"siphoc/internal/clock"
	"siphoc/internal/netem"
)

// Experiment is one runnable reproduction.
type Experiment struct {
	ID    string
	Title string
	// Paper identifies the figure/section being reproduced.
	Paper string
	Run   func(w io.Writer) error
}

// All returns the experiment registry in ID order.
func All() []Experiment {
	exps := []Experiment{
		{"E1", "Call setup flow in an isolated MANET", "Figure 3", E1},
		{"E2", "MANET SLP state after proxy advertisement", "Figure 4", E2},
		{"E3", "AODV route reply carrying piggybacked SIP contact", "Figure 5", E3},
		{"E4", "Out-of-the-box client configuration", "Figure 2, §3.1", E4},
		{"E5", "Calls to and from the Internet via a gateway", "§3.2", E5},
		{"E6", "SIP provider interoperability matrix", "§3.2", E6},
		{"E7", "Deployment footprint", "§4", E7},
		{"E8", "Session establishment delay vs hop count", "§4/§6 scalability", E8},
		{"E9", "Discovery overhead vs baselines", "§5 related work", E9},
		{"E10", "Transparency under gateway churn", "§3.2", E10},
		{"E11", "Scalability with network size", "§4/§6 future work", E11},
		{"E12", "Call success under mobility", "MANET premise of the title", E12},
		{"E13", "Multi-MANET federation over a sharded provider tier", "beyond the paper; ROADMAP north star", E13},
		{"E14", "Resolver backends: MANET SLP vs provider tier vs P2P overlay", "§5 related work; ROADMAP item 3", E14},
	}
	sort.Slice(exps, func(i, j int) bool {
		a, b := exps[i].ID, exps[j].ID
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return exps
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func header(w io.Writer, e string) {
	fmt.Fprintf(w, "\n=== %s ===\n", e)
}

// waitLong bounds an experiment's SLP lookups and its frame capture, in
// virtual time.
const waitLong = 10 * time.Second

// newFake returns an experiment's virtual clock, owned by the calling
// goroutine: it advances only while that goroutine waits on it.
func newFake() *clock.Fake { return clock.NewFake(time.Unix(1_000_000, 0)) }

// newScenario builds an experiment's deployment on a one-shard fake clock
// (see newFake), the configuration in which a run replays exactly.
func newScenario(opts ...siphoc.ScenarioOption) (*siphoc.Scenario, error) {
	radio := siphoc.WithRadio(netem.Config{Clock: newFake(), Shards: 1})
	return siphoc.NewScenarioWith(append([]siphoc.ScenarioOption{radio}, opts...)...)
}

// pollUntil checks cond every period of clk's time until it holds or
// timeout passes, and reports whether it held. It serves the conditions
// that no component signals on its own.
func pollUntil(clk clock.Clock, period, timeout time.Duration, cond func() bool) bool {
	deadline := clk.Now().Add(timeout)
	for !cond() {
		if clk.Now().After(deadline) {
			return false
		}
		clk.Sleep(period)
	}
	return true
}
