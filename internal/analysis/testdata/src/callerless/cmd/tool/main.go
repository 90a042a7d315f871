// Command tool is the fixture's non-test code outside internal/.
package main

import (
	"fmt"

	"callerlessfixture/internal/a"
	"callerlessfixture/internal/b"
)

func main() {
	sq := a.Square{Side: 2}
	fmt.Println(sq, a.Total([]a.Shape{sq}), a.Config{Used: 1}.Used, a.Used(), b.B(), a.Meter(3))
}
