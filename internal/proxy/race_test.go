//go:build race

package proxy

func init() { raceEnabled = true }
