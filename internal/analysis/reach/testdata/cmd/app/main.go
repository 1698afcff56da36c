// Command app is the fixture module's only main package, so it is the only
// root besides directives and initializers.
package main

import (
	"fmt"

	"fixture/facade"
	"fixture/lib"
	"fixture/other"
)

func main() {
	shapes := []lib.Shape{lib.Square{Side: 2}}
	fmt.Println(lib.FromMain(), other.Helper(), lib.Total(shapes), facade.Entry(), facade.Mode(1))
}
