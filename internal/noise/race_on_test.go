//go:build race

package noise

const raceEnabled = true
