//go:build race

package rtbench

// raceEnabled reports whether the race detector instruments this build;
// throughput comparisons are report-only when it does.
const raceEnabled = true
