//go:build race

package lwc

func init() { raceEnabled = true }
