// Package lib holds one case per reachability rule, each next to the twin
// that the rule decides the other way.
package lib

// FromMain is called by cmd/app: live.
func FromMain() int { return 1 }

// OnlyFromTest is FromMain's twin that only lib_test.go calls: flagged.
func OnlyFromTest() int { return 1 }

// A Shape is what Total calls through.
type Shape interface{ Area() float64 }

// A Square is a Shape.
type Square struct{ Side float64 }

// Area is reached only through the interface call in Total: live.
func (s Square) Area() float64 { return s.Side * s.Side }

// Perimeter is reached through nothing: flagged.
func (s Square) Perimeter() float64 { return 4 * s.Side }

// Total sums the shapes' areas.
func Total(shapes []Shape) float64 {
	sum := 0.0
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

// Helper shares its name with other.Helper, which cmd/app calls: flagged.
func Helper() int { return 2 }

// Oracle is called only by lib_test.go, but its directive roots it, and
// with it its callee: both live.
//
//deepdb:testonly the reference implementation lib_test.go compares against
func Oracle() int { return oracleStep() }

func oracleStep() int { return 1 }

// BareOracle is Oracle's twin whose directive gives no reason: flagged.
//
//deepdb:testonly
func BareOracle() int { return 1 }
