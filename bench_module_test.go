package siphoc_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleVets type-checks bench/, which is a module of its own that
// `go build ./... && go test ./...` here never compiles: a change to an
// exported signature or an interface the benchmark uses would otherwise
// break it unseen until the benchmark is next run.
func TestBenchModuleVets(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	cmd := exec.Command(goTool, "vet", "./...")
	cmd.Dir = "bench"
	// The module resolves siphoc by a replace directive; nothing may go to
	// the network or to another toolchain for it.
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
