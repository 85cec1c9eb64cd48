//go:build !race

package dist

// raceEnabled reports whether this test binary was built with the race
// detector; allocation pins skip themselves on instrumented builds.
const raceEnabled = false
