// Command bench is the fixture's benchmark module.
package main

import (
	"fmt"

	"callerlessfixture/internal/a"
)

func main() {
	fmt.Println(a.BenchOnly())
}
