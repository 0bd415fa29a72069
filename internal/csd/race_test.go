//go:build race

package csd

func init() { raceEnabled = true }
