// Package core is a directive fixture: well-formed, bare, mistyped and
// retired //deepdb: suppression comments. The diagnostics land on the directive
// comments themselves, so expectations use the block-comment form to
// share their line.
package core

// Valid carries a complete directive: no finding.
func Valid(m map[string]int) int {
	n := 0
	//deepdb:orderinvariant counting is order-free
	for range m {
		n++
	}
	return n
}

// Bare omits the mandatory justification.
func Bare(m map[string]int) int {
	n := 0
	/* want `needs a justification` */ //deepdb:orderinvariant
	for range m {
		n++
	}
	return n
}

// BareTestOnly roots itself for the reachability test without saying why.
//
/* want `needs a justification` */ //deepdb:testonly
func BareTestOnly() int {
	return 1
}

// Typo uses an unknown directive name.
func Typo(m map[string]int) int {
	n := 0
	/* want `unknown directive` */ //deepdb:orderinvarient typo in the name
	for range m {
		n++
	}
	return n
}

// Retired names the directive set no longer holds: a suppression left
// behind by a deleted analyzer is reported, not silently kept.
func Retired() int {
	n := 0
	/* want `unknown directive` */ //deepdb:walordered ordering established elsewhere
	n++
	/* want `unknown directive` */ //deepdb:snapshotsafe snapshot access proven safe elsewhere
	n++
	return n
}
