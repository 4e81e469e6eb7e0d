//go:build !race

package dagp

const raceEnabled = false
