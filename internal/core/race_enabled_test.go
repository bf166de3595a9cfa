//go:build race

package core_test

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation slows the mappers severalfold; the
// pipeline sweep leaves out its jacobi n=100 case when it is.
const raceEnabled = true
