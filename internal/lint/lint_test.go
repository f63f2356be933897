package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// fixtureWorld loads testdata fixture packages through the same World the
// command uses, so the tests exercise the real loader and source importer.
func fixtureWorld(t *testing.T) *World {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(root)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// fixtures maps each fixture directory to the fake import path it is loaded
// under. maprangefix sits under a /internal/exec path so the path-targeted
// maprange check applies to it; the rest use neutral paths.
func fixtures(w *World) map[string]string {
	return map[string]string{
		"maprangefix":   w.ModulePath + "/internal/exec/lintfixture/maprangefix",
		"hotallocfix":   w.ModulePath + "/lintfixture/hotallocfix",
		"rawrandfix":    w.ModulePath + "/lintfixture/rawrandfix",
		"scratchfix":    w.ModulePath + "/lintfixture/scratchfix",
		"droppederrfix": w.ModulePath + "/lintfixture/droppederrfix",
		"ignorefix":     w.ModulePath + "/lintfixture/ignorefix",
		"atomicmixfix":  w.ModulePath + "/lintfixture/atomicmixfix",
	}
}

// wantMarkers scans a fixture directory for `// want <check> [<check>...]`
// markers and returns the expected findings as "file:line" -> sorted check
// names.
func wantMarkers(t *testing.T, dir string) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			i := strings.Index(text, "// want ")
			if i < 0 {
				continue
			}
			checks := strings.Fields(text[i+len("// want "):])
			if len(checks) == 0 {
				t.Fatalf("%s:%d: empty want marker", e.Name(), line)
			}
			key := fmt.Sprintf("%s:%d", e.Name(), line)
			out[key] = append(out[key], checks...)
			sort.Strings(out[key])
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		_ = f.Close()
	}
	return out
}

// TestChecksAgainstFixtures: every check must report exactly the findings its
// fixture marks with `// want` — same file, same line, same check — and
// nothing else. This both proves each check fires on its seeded violations
// and pins the allowed idioms (capacity-guarded growth, collect-then-sort,
// seeded generators, explicit discards) as non-findings.
func TestChecksAgainstFixtures(t *testing.T) {
	w := fixtureWorld(t)
	for name, importPath := range fixtures(w) {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", name)
			p, err := w.LoadDir(dir, importPath)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string][]string{}
			for _, d := range Run([]*Package{p}, AllChecks()) {
				key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
				got[key] = append(got[key], d.Check)
				sort.Strings(got[key])
			}
			want := wantMarkers(t, dir)
			for key, checks := range want {
				if !reflect.DeepEqual(got[key], checks) {
					t.Errorf("%s: want %v, got %v", key, checks, got[key])
				}
			}
			for key, checks := range got {
				if _, ok := want[key]; !ok {
					t.Errorf("%s: unexpected finding(s) %v", key, checks)
				}
			}
		})
	}
}

// TestIgnoreSuppressesExactlyOne: the ignorefix fixture holds two identical
// violations, one carrying //statcheck:ignore rawrand — exactly one finding
// must survive.
func TestIgnoreSuppressesExactlyOne(t *testing.T) {
	w := fixtureWorld(t)
	p, err := w.LoadDir(filepath.Join("testdata", "src", "ignorefix"), fixtures(w)["ignorefix"])
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{p}, AllChecks())
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 finding after suppression, got %d: %v", len(diags), diags)
	}
	if d := diags[0]; d.Check != "rawrand" {
		t.Fatalf("surviving finding should be rawrand, got %+v", d)
	}
}

// TestCheckSelection: every registered check has a unique, non-empty name and
// a doc line (the -checks flag and -list output depend on both).
func TestCheckSelection(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range AllChecks() {
		if c.Name == "" || c.Doc == "" || c.Run == nil {
			t.Errorf("check %+v incomplete", c.Name)
		}
		if seen[c.Name] {
			t.Errorf("duplicate check name %q", c.Name)
		}
		seen[c.Name] = true
	}
	if len(seen) < 6 {
		t.Errorf("expected at least 6 registered checks, got %d", len(seen))
	}
}

// TestDiagnosticsSorted: Run must return findings in file/line/column order
// regardless of check registration order, so CI output is stable.
func TestDiagnosticsSorted(t *testing.T) {
	w := fixtureWorld(t)
	var pkgs []*Package
	for name, importPath := range fixtures(w) {
		p, err := w.LoadDir(filepath.Join("testdata", "src", name), importPath)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	diags := Run(pkgs, AllChecks())
	if len(diags) == 0 {
		t.Fatal("fixtures should produce findings")
	}
	sorted := sort.SliceIsSorted(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pos.Column < b.Pos.Column
	})
	if !sorted {
		t.Error("diagnostics not sorted by file/line/column")
	}
}
