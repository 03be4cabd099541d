//go:build race

package parser_test

func init() { raceEnabled = true }
