package siphoc

import (
	"fmt"
	"sync"
	"time"

	"siphoc/internal/netem"
	"siphoc/internal/testutil"
)

// FaultScenario couples a Scenario with a deterministic netem.FaultPlan and
// adds the scenario-level faults the raw plan cannot express: node crashes
// and restarts (which also drive the SLP cache-invalidation hook on every
// surviving node) and gateway churn (a gateway node crash is exactly that).
// After the plan has run, CheckInvariants asserts the recovery contract:
// every injected fault executed, every tracked call either recovered
// (established/ended) or failed with a terminal error — none stuck past the
// deadline — and every call trace still tiles its setup window exactly.
//
// Build the plan first (Plan, CrashNode, RestartNode, Track), then Run and
// Wait, then CheckInvariants. The builder is not safe for concurrent use
// with Run.
type FaultScenario struct {
	sc   *Scenario
	plan *netem.FaultPlan

	mu      sync.Mutex
	tracked []*Call
	errs    []error
}

// NewFaultScenario wraps sc with a fault plan seeded with seed, scheduled on
// the scenario's clock and traced by its observer.
func NewFaultScenario(sc *Scenario, seed int64) *FaultScenario {
	return &FaultScenario{
		sc:   sc,
		plan: netem.NewFaultPlan(sc.Network(), netem.FaultPlanConfig{Seed: seed, Obs: sc.obs}),
	}
}

// Scenario returns the wrapped deployment.
func (f *FaultScenario) Scenario() *Scenario { return f.sc }

// Plan exposes the underlying netem plan for link-level faults (cuts,
// degradation, partitions, random flaps).
func (f *FaultScenario) Plan() *netem.FaultPlan { return f.plan }

// CrashNode schedules a hard node crash at offset: the node's services stop,
// it disappears from the radio, and every surviving node's SLP cache drops
// the adverts the dead node originated — the fault-event invalidation hook,
// so calls don't chase stale bindings until natural TTL expiry.
func (f *FaultScenario) CrashNode(offset time.Duration, id NodeID) *FaultScenario {
	f.plan.At(offset, "crash node "+string(id), func() {
		f.sc.RemoveNode(id)
		for _, n := range f.sc.Nodes() {
			n.SLP().InvalidateOrigin(id)
		}
	})
	return f
}

// RestartNode schedules a node (re)start at offset — typically the recovery
// half of a CrashNode, or a replacement gateway appearing. Startup errors
// are collected and surfaced by CheckInvariants.
func (f *FaultScenario) RestartNode(offset time.Duration, id NodeID, pos Position, opts ...NodeOption) *FaultScenario {
	f.plan.At(offset, "restart node "+string(id), func() {
		if _, err := f.sc.AddNode(id, pos, opts...); err != nil {
			f.mu.Lock()
			f.errs = append(f.errs, fmt.Errorf("restart %s: %w", id, err))
			f.mu.Unlock()
		}
	})
	return f
}

// Track registers calls whose outcome CheckInvariants must account for.
func (f *FaultScenario) Track(calls ...*Call) *FaultScenario {
	f.mu.Lock()
	f.tracked = append(f.tracked, calls...)
	f.mu.Unlock()
	return f
}

// Run starts executing the plan; see netem.FaultPlan.Run.
func (f *FaultScenario) Run() error { return f.plan.Run() }

// Wait blocks until every scheduled fault has been injected.
func (f *FaultScenario) Wait() { f.plan.Wait() }

// Stop cancels outstanding faults.
func (f *FaultScenario) Stop() { f.plan.Stop() }

// Log returns the executed-fault log; on a fake clock the log of a seeded
// plan is bit-identical across runs.
func (f *FaultScenario) Log() []netem.FaultRecord { return f.plan.Log() }

// CheckInvariants verifies the recovery contract after the plan has run:
//
//   - every scheduled fault was injected (the plan was not stopped short)
//     and no scheduled callback (RestartNode) failed;
//   - within settle, every tracked call leaves the transient setup states:
//     it is established, cleanly ended, or failed with a terminal status —
//     a call still ringing past the deadline is stuck and fails the check;
//   - every tracked call's trace still tiles its setup window exactly
//     (the phase breakdown sums to the setup duration), so fault spans did
//     not corrupt the timeline accounting of internal/obs.
//
// Goroutine hygiene is the caller's half: capture runtime.NumGoroutine()
// before building the scenario and call SettleGoroutines after Close.
func (f *FaultScenario) CheckInvariants(settle time.Duration) error {
	if got, want := len(f.plan.Log()), f.plan.Len(); got != want {
		return fmt.Errorf("siphoc: %d of %d scheduled faults injected", got, want)
	}
	f.mu.Lock()
	errs := append([]error(nil), f.errs...)
	tracked := append([]*Call(nil), f.tracked...)
	f.mu.Unlock()
	if len(errs) > 0 {
		return fmt.Errorf("siphoc: fault callbacks failed: %v", errs)
	}

	clk := f.sc.Clock()
	deadline := clk.Now().Add(settle)
	for _, c := range tracked {
		_ = c.WaitEstablished(max(deadline.Sub(clk.Now()), 0)) // returns once the call leaves setup
		if st := c.State(); st != CallEstablished && st != CallEnded && st != CallFailed {
			return fmt.Errorf("siphoc: call %s stuck in state %v past deadline", c.ID(), st)
		}
	}
	for _, c := range tracked {
		tr := c.Trace()
		if tr.Empty() {
			continue
		}
		if _, _, ok := tr.Window(); !ok {
			continue // setup never completed (terminal failure): no window to tile
		}
		var sum time.Duration
		for _, ph := range tr.SetupBreakdown() {
			sum += ph.Duration
		}
		if sum != tr.SetupDuration() {
			return fmt.Errorf("siphoc: call %s trace not tile-complete: phases sum to %v, setup window %v",
				c.ID(), sum, tr.SetupDuration())
		}
	}
	return nil
}

// SettleGoroutines waits in wall-clock time until the process goroutine count
// drops to baseline+slack, or returns an error with the size of the leak.
// Fault tests capture the baseline before building a scenario and call this
// after tearing it down to prove fault handling leaks nothing.
func SettleGoroutines(baseline, slack int, timeout time.Duration) error {
	return testutil.SettleGoroutines(baseline, slack, timeout)
}
