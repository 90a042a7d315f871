// Command fpisa-vet runs the repository's custom static-analysis suite
// (internal/analysis): lockedcall, mixedatomic, wirebounds, retaincap and
// callerless, the five machine-checked invariants of the switch data plane
// and of the code under internal/.
//
//	fpisa-vet [-run analyzer,analyzer] [packages]
//
// The packages default to ./... and are resolved in the current directory;
// callerless always judges callers over the whole module and its bench/
// module, and reports on the matched packages only.
// Exit status is 0 when the tree is clean, 2 when findings are reported,
// and 1 on driver errors. False positives are suppressed in source with a
// documented `//fpisa:ignore <analyzer> <reason>` comment.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"fpisa/internal/analysis"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fpisa-vet: ")
	runSpec := flag.String("run", "", "comma-separated subset of analyzers to run (default: all)")
	flag.Parse()
	analyzers, err := analysis.ByName(*runSpec)
	if err != nil {
		log.Fatal(err)
	}
	findings, err := analysis.Run(".", flag.Args(), analyzers)
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		os.Exit(2)
	}
}
