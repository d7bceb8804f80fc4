// Command benchjson converts `go test -bench` output on stdin into a JSON
// document on stdout, so benchmark runs can be committed and diffed
// (BENCH_netem.json, BENCH_sip.json — see the Makefile bench target).
//
// Each benchmark line
//
//	BenchmarkSIPParse-8   618181   1937 ns/op   1728 B/op   18 allocs/op
//
// becomes an object with the name, iteration count, and one entry per
// reported metric keyed by its unit.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the whole document.
type Report struct {
	Package    string   `json:"package,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	rep := Report{Benchmarks: []Result{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg:"):
			// A snapshot fed from several packages names them all.
			rep.Package = strings.TrimSpace(rep.Package + " " + strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				rep.Benchmarks = append(rep.Benchmarks, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseLine decodes "BenchmarkName-P  N  value unit  value unit ...".
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Result{}, false
	}
	// Strip the -GOMAXPROCS suffix for stable names across machines.
	name := fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iters: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}
