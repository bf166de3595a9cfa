//go:build !race

package core_test

// See race_enabled_test.go.
const raceEnabled = false
