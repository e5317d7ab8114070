//go:build race

package rt

// raceEnabled reports whether the race detector instruments this build.
// Performance-comparison assertions are report-only under the race
// detector: instrumentation slows the atomic-heavy sharded path far
// more than the channel baseline, so throughput orderings that hold in
// normal builds are not meaningful here.
const raceEnabled = true
