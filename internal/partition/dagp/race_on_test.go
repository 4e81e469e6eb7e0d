//go:build race

package dagp

const raceEnabled = true
