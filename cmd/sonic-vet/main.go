// Command sonic-vet runs the project-invariant analyzers over the
// repository: the off-mutex kernel rule, equivalence-test pinning, the
// no-global-rand rule, and dead code. It exits 1 when any unsuppressed
// finding is reported and 2 on load errors, so check.sh can gate on it
// exactly like go vet.
//
// Usage:
//
//	sonic-vet [packages]
//
// Packages default to ./... relative to the enclosing module; dead code
// is judged over the packages named, so it needs them all. Findings
// print as "file:line: [analyzer] message"; a finding is suppressed by
// a "//sonic:ignore analyzer reason" comment on the same or preceding
// line, and every suppression is listed in the summary with its reason.
// A deadcode finding cannot be suppressed: the directive is reported
// instead.
package main

import (
	"fmt"
	"os"

	"sonic/internal/analysis"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	res, err := run(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sonic-vet: %v\n", err)
		os.Exit(2)
	}
	res.WriteText(os.Stdout)
	if len(res.Findings) > 0 {
		os.Exit(1)
	}
}

// run loads the packages matching patterns and runs every analyzer.
func run(patterns []string) (*analysis.Result, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		return nil, err
	}
	dirs, err := loader.ExpandPatterns(patterns)
	if err != nil {
		return nil, err
	}
	return analysis.Run(loader, analysis.All(), dirs)
}
