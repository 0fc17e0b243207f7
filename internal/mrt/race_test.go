//go:build race

package mrt

// raceEnabled reports a build with the race detector, under which sync.Pool
// drops a share of its Puts at random, so a pooled call's allocation count
// is not exact.
const raceEnabled = true
