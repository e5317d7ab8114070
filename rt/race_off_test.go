//go:build !race

package rt

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
