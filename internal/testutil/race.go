//go:build race

package testutil

// Race reports whether the binary was built with -race. Allocation pins skip
// there: the detector's instrumentation allocates, and sync.Pool drops a
// quarter of what it is given, so a count is not the program's own. The
// largest runs take their -short sizes there, since the detector multiplies
// their CPU cost several-fold.
const Race = true
