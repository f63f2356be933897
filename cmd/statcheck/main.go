// Command statcheck runs the repository's static-analysis suite (package
// internal/lint) over the module:
//
//	go run ./cmd/statcheck ./...
//	go run ./cmd/statcheck -checks maprange,atomicmix ./internal/sit
//	go run ./cmd/statcheck -list
//
// It loads every matched package, type-checks it with the standard library's
// go/types (source importer, no third-party tooling), runs the registered
// checks, and prints file:line:col diagnostics. The exit status is 0 when
// the tree is clean, 1 when there are findings, and 2 on load errors — so CI
// can gate on it directly. Findings are suppressed case by case with
// //statcheck:ignore directives next to the excused code (see package lint
// for the annotation grammar).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/sitstats/sits/internal/lint"
)

func main() {
	var (
		list   = flag.Bool("list", false, "list registered checks and exit")
		checks = flag.String("checks", "", "comma-separated checks to run (default: all)")
	)
	flag.Parse()
	if *list {
		for _, c := range lint.AllChecks() {
			fmt.Printf("%-14s %s\n", c.Name, c.Doc)
		}
		return
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "statcheck:", err)
		os.Exit(2)
	}
	n, err := run(os.Stdout, cwd, flag.Args(), *checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "statcheck:", err)
		os.Exit(2)
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "statcheck: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// run loads the patterns relative to cwd, executes the selected checks, and
// writes findings to out, returning the count.
func run(out io.Writer, cwd string, patterns []string, checkNames string) (int, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		return 0, err
	}
	world, err := lint.NewWorld(root)
	if err != nil {
		return 0, err
	}
	selected, err := selectChecks(checkNames)
	if err != nil {
		return 0, err
	}
	pkgs, err := world.LoadPatterns(cwd, patterns)
	if err != nil {
		return 0, err
	}
	diags := lint.Run(pkgs, selected)
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		fmt.Fprintf(out, "%s:%d:%d: %s: %s\n", file, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
	}
	return len(diags), nil
}

func selectChecks(names string) ([]lint.Check, error) {
	all := lint.AllChecks()
	if names == "" {
		return all, nil
	}
	byName := map[string]lint.Check{}
	for _, c := range all {
		byName[c.Name] = c
	}
	var out []lint.Check
	for _, name := range strings.Split(names, ",") {
		c, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown check %q", name)
		}
		out = append(out, c)
	}
	return out, nil
}
