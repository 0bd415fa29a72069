//go:build race

package fitting

func init() { raceEnabled = true }
