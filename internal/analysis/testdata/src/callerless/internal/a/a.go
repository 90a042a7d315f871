// Package a holds one declaration per callerless rule.
package a

// OwnTestOnly is used only by this package's tests.
func OwnTestOnly() int { // want "a.OwnTestOnly is callerless"
	return helper()
}

// helper's only caller is itself callerless.
func helper() int { return 1 } // want "a.helper is callerless"

// OtherTestUsed is test-support API: another package's test uses it.
func OtherTestUsed() int { return 2 }

// XTestUsed is test-support API another package's external test uses.
func XTestUsed() int { return 7 }

// Meter is used by the tool; only its Len method's name is also the name of
// a method another package's test calls, on a type of its own.
type Meter int

func (m Meter) Len() int { return int(m) } // want "a.Meter.Len is callerless"

// Shape is the interface the tool reaches Square through.
type Shape interface{ Area() float64 }

// Square has no direct caller of Area; the tool calls it through Shape.
type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

// String is reached through fmt.Stringer without a named call.
func (s Square) String() string { return "square" }

// Total sums the areas of shapes.
func Total(shapes []Shape) float64 {
	var t float64
	for _, s := range shapes {
		t += s.Area()
	}
	return t
}

// Config has one field the tool sets and one only this package's tests do.
type Config struct {
	Used     int
	TestOnly int // want "a.Config.TestOnly is callerless"
}

// BenchOnly's only user is the bench/ module: no finding, bench-only class.
func BenchOnly() int { return 3 }

//fpisa:ignore callerless kept as the documented extension point
func Suppressed() int { return 4 }

//fpisa:ignore callerless stale now that the tool calls it // want "stale //fpisa:ignore"
func Used() int { return 5 }
