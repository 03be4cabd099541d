//go:build race

package study_test

func init() { raceEnabled = true }
