//go:build !race

package rtbench

const raceEnabled = false
