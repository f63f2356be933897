package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/sitstats/sits"
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

// TestSaveFailureKeepsPreviousSet loads a saved SIT set and saves back over
// the same file with an encoder that fails after writing half its bytes. The
// run must fail, the file must still hold the set it held before (and load),
// and no temporary file may be left in the directory.
func TestSaveFailureKeepsPreviousSet(t *testing.T) {
	dir := t.TempDir()
	statsFile := filepath.Join(dir, "stats.json")
	const q, p = "T1 JOIN T2 ON T1.jnext = T2.jprev", "T2.a:1:100"
	if err := run(opts(q, p, "T2.a | "+q, "sweepfull", "", statsFile, false)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(statsFile)
	if err != nil {
		t.Fatal(err)
	}
	errDisk := errors.New("disk full")
	saveSITs = func(w io.Writer, set []*sits.SIT) error {
		var buf bytes.Buffer
		if err := sits.SaveSITs(&buf, set); err != nil {
			return err
		}
		if _, err := w.Write(buf.Bytes()[:buf.Len()/2]); err != nil {
			return err
		}
		return errDisk
	}
	defer func() { saveSITs = sits.SaveSITs }()
	if err := run(opts(q, p, "", "sweep", statsFile, statsFile, false)); !errors.Is(err, errDisk) {
		t.Fatalf("save with a failing writer: err = %v, want %v", err, errDisk)
	}
	after, err := os.ReadFile(statsFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("failed save changed the file: %d bytes before, %d after", len(before), len(after))
	}
	if loaded, err := sits.LoadSITs(bytes.NewReader(after)); err != nil || len(loaded) != 1 {
		t.Fatalf("previous set no longer loads: %d SITs, err %v", len(loaded), err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want only stats.json", names)
	}
}
