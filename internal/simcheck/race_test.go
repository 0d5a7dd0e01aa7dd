//go:build race

package simcheck

func init() { raceEnabled = true }
