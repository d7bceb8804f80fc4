//go:build race

package netem

// raceEnabled reports whether this test binary was built with -race, under
// which allocation counts are the detector's as much as the program's (see
// skipAllocPin).
const raceEnabled = true
