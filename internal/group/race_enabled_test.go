//go:build race

package group

// raceEnabled reports whether this test binary was built with the race
// detector, which slows the fmt-based referee about tenfold; the
// referee skips its largest groups when it is.
const raceEnabled = true
