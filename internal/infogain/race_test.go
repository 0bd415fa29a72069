//go:build race

package infogain

func init() { raceEnabled = true }
