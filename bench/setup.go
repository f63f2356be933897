package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/sitstats/sits"
)

// env is where one harness process reads and writes: everything lives under
// the checkout's .bench_build directory (build outputs survive across runs,
// the per-process run directory does not) and bench/out (trace artifacts).
type env struct {
	root      string // repository root (the directory holding go.mod)
	daemonBin string // .bench_build/bin/sitserve
	runDir    string // .bench_build/run-<pid>: inputs, SIT files, spill dirs
	outDir    string // bench/out

	mu       sync.Mutex
	cleanups []func()
}

const modulePath = "module github.com/sitstats/sits"

// findRoot walks up from the working directory to the sits module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if buf, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(buf), modulePath) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: not inside the sits module (no go.mod declaring %q)", modulePath)
		}
		dir = parent
	}
}

// newEnv prepares the run directory under buildDir (default
// <root>/.bench_build) and points TMPDIR into it, so spill stores created by
// this process and by the daemon land inside the checkout and vanish with it.
func newEnv(buildDir string) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	if buildDir == "" {
		buildDir = filepath.Join(root, ".bench_build")
	}
	e := &env{
		root:      root,
		daemonBin: filepath.Join(buildDir, "bin", "sitserve"),
		runDir:    filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid())),
		outDir:    filepath.Join(root, "bench", "out"),
	}
	tmp := filepath.Join(e.runDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	e.onExit(func() { _ = os.RemoveAll(e.runDir) })
	if err := os.Setenv("TMPDIR", tmp); err != nil {
		return nil, err
	}
	return e, nil
}

// onExit registers f to run (last registered first) when the harness ends on
// any path: normal return, failed check, or signal.
func (e *env) onExit(f func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cleanups = append(e.cleanups, f)
}

// close runs the registered cleanups once.
func (e *env) close() {
	e.mu.Lock()
	fs := e.cleanups
	e.cleanups = nil
	e.mu.Unlock()
	for i := len(fs) - 1; i >= 0; i-- {
		fs[i]()
	}
}

// dataDir is where the workload's table files live.
func (e *env) dataDir(w workload) string { return filepath.Join(e.runDir, w.name, "data") }

// sitsFile is where creation passes persist the workload's SIT set.
func (e *env) sitsFile(w workload) string { return filepath.Join(e.runDir, w.name, "sits.json") }

// setup is everything that happens before the system under test runs:
// generate the tables from the seed, write them as segments or CSV, and
// build the daemon binary. It returns the generated database (the refresh
// workload's cycles append its pool).
func (e *env) setup(w workload, seed int64) (*database, time.Duration, error) {
	t0 := now()
	db, err := w.generate(seed)
	if err != nil {
		return nil, 0, err
	}
	dir := e.dataDir(w)
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	for _, t := range db.tables {
		if w.segments {
			err = sits.WriteSegment(filepath.Join(dir, t.Name()+".seg"), t)
		} else {
			err = sits.WriteCSVFile(t, filepath.Join(dir, t.Name()+".csv"))
		}
		if err != nil {
			return nil, 0, err
		}
	}
	if err := e.buildDaemon(); err != nil {
		return nil, 0, err
	}
	// The files are the input from here on; only the refresh pool stays in
	// memory, so the measured phases do not drag the generator's copy of the
	// tables through every garbage collection.
	db.tables = [numTables]*sits.Table{}
	return db, now().Sub(t0), nil
}

// buildDaemon compiles cmd/sitserve from the checkout's source.
func (e *env) buildDaemon() error {
	cmd := exec.Command("go", "build", "-o", e.daemonBin, "./cmd/sitserve")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("bench: go build ./cmd/sitserve: %v\n%s", err, out)
	}
	return nil
}

// loadCatalog opens the workload's tables the way the CLIs do.
func (e *env) loadCatalog(w workload) (*sits.Catalog, error) {
	if w.segments {
		return sits.LoadCatalog("", e.dataDir(w), nil)
	}
	return sits.LoadCatalog(e.dataDir(w), "", nil)
}

// closeCatalog releases segment file handles.
func closeCatalog(cat *sits.Catalog) {
	for _, name := range cat.Names() {
		if t, err := cat.Table(name); err == nil {
			_ = t.Close()
		}
	}
}
