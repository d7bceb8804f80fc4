package main

import (
	"encoding/json"
	"fmt"
	"slices"
)

// runSelfcheck measures every workload n times, each time with the next
// seed, and prints per end-to-end metric the spread (max−min)/median beside
// its bound. A bound is only worth gating on if the benchmark repeats well
// inside it, so a spread above half the bound fails the check. A bound that
// is already the largest a bound may be cannot be widened to twice the spread;
// there the check is that the spread stays inside the bound itself.
func runSelfcheck(n int, seed int64, seconds float64) error {
	st, err := json.Marshal(hostStamp())
	if err != nil {
		return err
	}
	fmt.Printf("selfcheck: %d runs per workload, seeds %d-%d, %g s windows, on %s\n\n", n, seed, seed+int64(n)-1, seconds, st)
	fmt.Println("| workload | metric | unit | median | spread | limit | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	var wide []string
	for i := range workloads {
		w := &workloads[i]
		values := map[string][]float64{}
		for run := range n {
			rep, err := endToEndRun(w, seed+int64(run), seconds)
			if err != nil {
				return err
			}
			if len(rep.Invalid) > 0 {
				return fmt.Errorf("seed %d: %w", seed+int64(run), notAMeasurement(w, rep))
			}
			for name, v := range rep.Metrics {
				values[name] = append(values[name], v)
			}
		}
		for _, def := range endToEnd {
			vs := values[def.Name]
			spread := ratio(slices.Max(vs)-slices.Min(vs), median(vs))
			limit := def.Bound / 2
			if def.Bound >= maxBound {
				limit = def.Bound
			}
			verdict := "ok"
			if spread > limit {
				verdict = "TOO WIDE"
				wide = append(wide, w.name+"/"+def.Name)
			}
			fmt.Printf("| %s | %s | %s | %.4g | %.2f%% | %.1f%% | %.1f%% | %s |\n", w.name, def.Name, def.Unit, median(vs), 100*spread, 100*limit, 100*def.Bound, verdict)
		}
	}
	if len(wide) > 0 {
		return fmt.Errorf("selfcheck: spread above its limit on %v", wide)
	}
	return nil
}
