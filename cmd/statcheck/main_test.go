package main

import (
	"bufio"
	"bytes"
	"encoding/json"
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

// TestRunJSONOnFixture: -json emits one valid JSON object per finding per
// line with the documented fields, and the count matches the line count.
func TestRunJSONOnFixture(t *testing.T) {
	fixture := filepath.Join(lintDir(t), "testdata", "src", "rawrandfix")
	var buf bytes.Buffer
	n, err := run(&buf, fixture, []string{"."}, "rawrand", true)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("rawrandfix should produce findings")
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		lines++
		var f finding
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("line %d is not valid JSON: %v: %s", lines, err, sc.Text())
		}
		if f.Check != "rawrand" || f.File == "" || f.Line <= 0 || f.Col <= 0 || f.Message == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
	}
	if lines != n {
		t.Errorf("run reported %d findings but emitted %d JSON lines", n, lines)
	}
}

// TestRunTextOnFixture: the default text form stays file:line:col: check: msg.
func TestRunTextOnFixture(t *testing.T) {
	fixture := filepath.Join(lintDir(t), "testdata", "src", "rawrandfix")
	var buf bytes.Buffer
	n, err := run(&buf, fixture, []string{"."}, "rawrand", false)
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
	cs, err := selectChecks("grantleak, planclose")
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || cs[0].Name != "grantleak" || cs[1].Name != "planclose" {
		t.Fatalf("unexpected selection: %+v", cs)
	}
}
