//go:build race

package autopar

func init() { raceEnabled = true }
