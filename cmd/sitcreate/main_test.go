package main

import (
	"path/filepath"
	"testing"

	"github.com/sitstats/sits"
	"github.com/sitstats/sits/internal/cliopt"
)

// opts is the command line "-sit spec -method m -buckets b [-csv dir]
// [-verify] -queries q" with every engine flag at its default.
func opts(spec, method string, buckets int, csvDir string, verify bool, queries int) options {
	return options{sit: spec, method: method, buckets: buckets, rate: 0.1, verify: verify, queries: queries,
		eng: &cliopt.Engine{MemBudget: "0", Seed: 1, CSV: csvDir}}
}

func TestRunOnGeneratedData(t *testing.T) {
	err := run(opts("T2.a | T1 JOIN T2 ON T1.jnext = T2.jprev", "sweep", 50, "", true, 100))
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(opts("", "sweep", 50, "", false, 10)); err == nil {
		t.Error("missing spec: want error")
	}
	if err := run(opts("not a spec", "sweep", 50, "", false, 10)); err == nil {
		t.Error("bad spec: want error")
	}
	if err := run(opts("T2.a | T1 JOIN T2 ON T1.jnext = T2.jprev", "bogus", 50, "", false, 10)); err == nil {
		t.Error("bad method: want error")
	}
	if err := run(opts("T2.a | T1 JOIN T2 ON T1.jnext = T2.jprev", "sweep", 50, "/nonexistent", false, 10)); err == nil {
		t.Error("missing CSV dir: want error")
	}
}

func TestRunOnCSV(t *testing.T) {
	dir := t.TempDir()
	r, err := sits.NewTable("R", "x")
	if err != nil {
		t.Fatal(err)
	}
	s, err := sits.NewTable("S", "y", "a")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 200; i++ {
		r.AppendRow(i % 20)
		s.AppendRow(i%20, i%50)
	}
	if err := sits.WriteCSVFile(r, filepath.Join(dir, "R.csv")); err != nil {
		t.Fatal(err)
	}
	if err := sits.WriteCSVFile(s, filepath.Join(dir, "S.csv")); err != nil {
		t.Fatal(err)
	}
	if err := run(opts("S.a | R JOIN S ON R.x = S.y", "sweepexact", 100, dir, true, 100)); err != nil {
		t.Fatal(err)
	}
}
