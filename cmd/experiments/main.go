// Command experiments regenerates the paper's figures and evaluation claims
// (the index is DESIGN.md §4; measured outcomes are recorded in
// EXPERIMENTS.md). Run all of them or a comma-separated subset:
//
//	experiments -run all
//	experiments -run E1,E3,E8
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"siphoc/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	sel := fs.String("run", "all", "comma-separated experiment IDs (E1..E14) or 'all'")
	list := fs.Bool("list", false, "list available experiments and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %-55s (%s)\n", e.ID, e.Title, e.Paper)
		}
		return nil
	}
	var selected []experiments.Experiment
	if *sel == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*sel, ",") {
			e, ok := experiments.Find(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, e)
		}
	}
	failures := 0
	for _, e := range selected {
		start := time.Now()
		if err := e.Run(os.Stdout); err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "\n%s FAILED after %v: %v\n", e.ID, time.Since(start).Round(time.Millisecond), err)
			continue
		}
		fmt.Printf("\n%s completed in %v\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) failed", failures)
	}
	return nil
}
