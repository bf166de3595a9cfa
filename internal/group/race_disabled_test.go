//go:build !race

package group

// See race_enabled_test.go.
const raceEnabled = false
