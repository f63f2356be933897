package main

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/sitstats/sits/internal/cliopt"
)

// opts is the command line "-query q -pred p -build b -method m -sits f
// -save f [-truth]" with every engine flag at its default.
func opts(query, preds, builds, method, sitsFile, saveFile string, truth bool) options {
	return options{query: query, preds: preds, builds: builds, method: method,
		sitsFile: sitsFile, saveFile: saveFile, truth: truth,
		eng: &cliopt.Engine{MemBudget: "0", Seed: 1}}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	statsFile := filepath.Join(dir, "stats.json")
	// Build + estimate + save.
	err := run(opts("T1 JOIN T2 ON T1.jnext = T2.jprev", "T2.a:1:100",
		"T2.a | T1 JOIN T2 ON T1.jnext = T2.jprev", "sweepfull", "", statsFile, true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(statsFile); err != nil {
		t.Fatalf("stats file not written: %v", err)
	}
	// Load the saved SITs and estimate again.
	err = run(opts("T1 JOIN T2 ON T1.jnext = T2.jprev", "T2.a:1:100", "", "sweep", statsFile, "", false))
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(opts("", "", "", "sweep", "", "", false)); err == nil {
		t.Error("missing query: want error")
	}
	if err := run(opts("not a query ON", "", "", "sweep", "", "", false)); err == nil {
		t.Error("bad query: want error")
	}
	if err := run(opts("T1 JOIN T2 ON T1.jnext = T2.jprev", "bad", "", "sweep", "", "", false)); err == nil {
		t.Error("bad predicate: want error")
	}
	if err := run(opts("T1 JOIN T2 ON T1.jnext = T2.jprev", "", "zz", "sweep", "", "", false)); err == nil {
		t.Error("bad build spec: want error")
	}
	if err := run(opts("T1 JOIN T2 ON T1.jnext = T2.jprev", "", "T2.a | T1 JOIN T2 ON T1.jnext = T2.jprev", "bogus", "", "", false)); err == nil {
		t.Error("bad method: want error")
	}
	if err := run(opts("T1 JOIN T2 ON T1.jnext = T2.jprev", "", "", "sweep", "/no/such/file.json", "", false)); err == nil {
		t.Error("missing sits file: want error")
	}
	if err := run(opts("T1 JOIN T2 ON T1.jnext = T2.jprev", "T2.a:1:2,T2.b:1:2", "", "sweep", "", "", true)); err == nil {
		t.Error("-truth with two predicates: want error")
	}
}
