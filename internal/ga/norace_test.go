//go:build !race

package ga

// RaceEnabled reports whether the tests run under the race detector. It
// is exported so the external ga_test package sees it too.
const RaceEnabled = false
