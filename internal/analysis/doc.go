// Package analysis implements fpisa-vet, the repository's custom static
// analysis suite: four analyzers that machine-check invariants the switch
// data plane relies on but the compiler cannot see — lockedcall (*Locked
// functions are only called with a lock held), mixedatomic (no field mixes
// sync/atomic and plain access), wirebounds (every Decode*/decode* guards
// len() before indexing and wraps ErrTruncated), and retaincap (packet handlers
// never retain delivered buffers past the call, per the fabric ownership
// contract).
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Reportf) but is self-contained on the standard library: packages are
// loaded with `go list -export` and type-checked from source against
// compiler export data, so the suite runs offline with no dependencies.
// False positives are suppressed with a `//fpisa:ignore <analyzer> <reason>`
// comment; the driver rejects suppressions without a reason and flags stale
// ones.
//
// Integration status: fully integrated — cmd/fpisa-vet drives the suite over
// package patterns through Load (the analyzer tests load their testdata
// packages the same way), and the CI lint job runs it over ./... on every
// push.
package analysis
