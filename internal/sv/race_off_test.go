//go:build !race

package sv

const raceEnabled = false
