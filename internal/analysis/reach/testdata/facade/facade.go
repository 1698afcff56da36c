// Package facade stands in for repro/deepdb: an exported function here also
// needs a live caller outside the package.
package facade

// Entry is called by cmd/app: live.
func Entry() int { return Internal() }

// Internal is reachable, but only Entry calls it: flagged by the facade rule.
func Internal() int { return 1 }

// A Mode is printed by cmd/app.
type Mode int

// String is reached only through fmt.Stringer: live, and exempt from the
// facade rule as an interface method.
func (m Mode) String() string { return "mode" }
