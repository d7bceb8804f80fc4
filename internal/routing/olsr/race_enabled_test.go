//go:build race

package olsr

// raceEnabled reports whether this test binary was built with -race, under
// which allocation counts are not meaningful.
const raceEnabled = true
