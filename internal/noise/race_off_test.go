//go:build !race

package noise

const raceEnabled = false
