// Command slicelint runs the repository's static-analysis suite (see
// docs/STATIC_ANALYSIS.md):
//
//	slicelint ./...                  # lint the whole module
//	slicelint ./internal/core        # lint one package
//	slicelint -list                  # show the analyzers
//
// It exits 0 when clean, 1 when findings survive suppression, and 2 when a
// package does not load (go build and go vet report those first). Findings
// print as file:line:col: analyzer: message. Intentional violations are
// suppressed in source with
//
//	//lint:ignore <analyzer> <reason>
//
// on the offending line or the line directly above it; a directive that
// suppresses nothing is itself a finding.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"scotty/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slicelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	chdir := fs.String("C", "", "lint the module rooted at this directory instead of the working directory's")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root := *chdir
	if root == "" {
		var err error
		root, err = moduleRoot()
		if err != nil {
			fmt.Fprintln(stderr, "slicelint:", err)
			return 2
		}
	}
	modPath, err := lint.ModulePathFromGoMod(root)
	if err != nil {
		fmt.Fprintln(stderr, "slicelint:", err)
		return 2
	}
	pkgs, err := (&lint.Loader{ModulePath: modPath, Dir: root}).Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "slicelint:", err)
		return 2
	}

	findings := lint.Run(lint.All(), pkgs)
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "slicelint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}
