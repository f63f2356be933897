package main

import (
	"bytes"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// lintDir resolves internal/lint relative to this file, so the tests run the
// command's own pipeline against the lint package's fixtures.
func lintDir(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	return filepath.Join(filepath.Dir(file), "..", "..", "internal", "lint")
}

// TestRunTextOnFixture: the default text form stays file:line:col: check: msg.
func TestRunTextOnFixture(t *testing.T) {
	fixture := filepath.Join(lintDir(t), "testdata", "src", "rawrandfix")
	var buf bytes.Buffer
	n, err := run(&buf, fixture, []string{"."}, "rawrand")
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("rawrandfix should produce findings")
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if !strings.Contains(line, ": rawrand: ") {
			t.Errorf("malformed text diagnostic: %s", line)
		}
	}
}

// TestSelectChecksUnknown: an unknown -checks name is a load error (exit 2
// path), not a silent no-op.
func TestSelectChecksUnknown(t *testing.T) {
	if _, err := selectChecks("nosuchcheck"); err == nil {
		t.Fatal("want error for unknown check name")
	}
	cs, err := selectChecks("scratchshare, atomicmix")
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || cs[0].Name != "scratchshare" || cs[1].Name != "atomicmix" {
		t.Fatalf("unexpected selection: %+v", cs)
	}
}
