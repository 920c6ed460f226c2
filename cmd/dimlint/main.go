// Command dimlint machine-checks the repo's load-bearing invariants:
// encode-once frame ownership (refbalance), the broker's two-plane locking
// discipline (lockplane), and hot-path allocation discipline (hotpathiter).
// The decode-copies-out contract of pooled buffers is a test, not a lint:
// TestPooledReadBufferNeverEscapes plus the -race suites.
//
//	dimlint [patterns]   # patterns as for go list; default ./...
//
// It loads the packages through `go list -export`, runs every analyzer
// over them, and prints the diagnostics on stderr. The exit code is 0 when
// the packages are clean, 2 when there are diagnostics, and 1 when the
// driver fails: a pattern that does not load, or an argument that looks
// like a flag (dimlint takes none).
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"dimprune/internal/analysis"
	"dimprune/internal/analysis/load"
)

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

func run(args []string, stderr io.Writer) int {
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			fmt.Fprintf(stderr, "dimlint: unknown argument %s: dimlint takes no flags\n\nusage: dimlint [patterns]\n\nAnalyzers:\n", a)
			for _, an := range analysis.All() {
				fmt.Fprintf(stderr, "  %-12s %s\n", an.Name, an.Doc)
			}
			return 1
		}
	}
	pkgs, err := load.Load(".", args)
	if err != nil {
		fmt.Fprintf(stderr, "dimlint: %v\n", err)
		return 1
	}
	found := false
	for _, pkg := range pkgs {
		diags, err := analysis.RunAnalyzers(pkg, analysis.All())
		if err != nil {
			fmt.Fprintf(stderr, "dimlint: %v\n", err)
			return 1
		}
		for _, d := range diags {
			fmt.Fprintln(stderr, d)
		}
		found = found || len(diags) > 0
	}
	if found {
		return 2
	}
	return 0
}
