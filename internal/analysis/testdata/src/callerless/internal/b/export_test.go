package b

// Hook exposes B to the external test: it type-checks only against the
// package's test build.
func Hook() int { return B() }
