//go:build race

package fuse

const raceEnabled = true
