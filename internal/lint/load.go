package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package plus the lint annotations
// harvested from its comments.
type Package struct {
	Path  string // import path
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File // non-test files only
	Types *types.Package
	Info  *types.Info

	// Hot holds the functions annotated //statcheck:hot.
	Hot []*ast.FuncDecl
	// Scratch holds the type objects annotated //statcheck:scratch.
	Scratch map[types.Object]bool

	// ignores maps filename -> ignore directives, from //statcheck:ignore.
	ignores map[string][]ignoreDirective
}

type ignoreDirective struct {
	line int
	// standalone means the directive is alone on its line (no code before
	// it), so it excuses the line below; trailing directives excuse only
	// their own line.
	standalone bool
	checks     map[string]bool
}

// suppressed reports whether an ignore directive for the diagnostic's check
// covers the diagnostic's line: any directive covers its own line, and a
// standalone directive additionally covers the line directly below it.
func (p *Package) suppressed(d Diagnostic) bool {
	for _, ig := range p.ignores[d.Pos.Filename] {
		if !ig.checks[d.Check] {
			continue
		}
		if ig.line == d.Pos.Line || (ig.standalone && ig.line == d.Pos.Line-1) {
			return true
		}
	}
	return false
}

// World loads and caches the module's packages. Module-internal imports are
// resolved against the module tree and type-checked from source; standard
// library imports go through go/importer's source importer (the toolchain
// ships no pre-compiled export data, and compiling stdlib from source keeps
// the loader pure go/* stdlib).
type World struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string

	pkgs    map[string]*Package // by import path
	loading map[string]bool     // import-cycle guard
	std     types.Importer
}

// NewWorld creates a loader rooted at the module directory containing go.mod.
func NewWorld(moduleRoot string) (*World, error) {
	abs, err := filepath.Abs(moduleRoot)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	w := &World{
		Fset:       token.NewFileSet(),
		ModuleRoot: abs,
		ModulePath: modPath,
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}
	w.std = importer.ForCompiler(w.Fset, "source", nil)
	return w, nil
}

// FindModuleRoot walks upward from dir to the nearest directory containing a
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: %s has no module directive", gomod)
}

// Import implements types.Importer: module-internal paths load from the
// module tree, everything else from the stdlib source importer.
func (w *World) Import(path string) (*types.Package, error) {
	if path == w.ModulePath || strings.HasPrefix(path, w.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, w.ModulePath), "/")
		p, err := w.LoadDir(filepath.Join(w.ModuleRoot, rel), path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return w.std.Import(path)
}

// LoadDir parses and type-checks the package in dir under the given import
// path (cached per path).
func (w *World) LoadDir(dir, path string) (*Package, error) {
	if p, ok := w.pkgs[path]; ok {
		return p, nil
	}
	if w.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	w.loading[path] = true
	defer delete(w.loading, path)

	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	names, err := goFileNames(absDir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", absDir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(w.Fset, filepath.Join(absDir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: w}
	tpkg, err := conf.Check(path, w.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{
		Path:  path,
		Dir:   absDir,
		Fset:  w.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	p.collectAnnotations()
	w.pkgs[path] = p
	return p, nil
}

// goFileNames lists the buildable non-test Go files of dir, sorted.
func goFileNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// LoadPatterns resolves go-style package patterns ("./...", "./internal/sit",
// "dir") relative to baseDir into loaded packages, skipping testdata and
// hidden directories.
func (w *World) LoadPatterns(baseDir string, patterns []string) ([]*Package, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			root := filepath.Join(baseDir, rest)
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				names, err := goFileNames(path)
				if err != nil {
					return err
				}
				if len(names) > 0 {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		add(filepath.Join(baseDir, pat))
	}
	var pkgs []*Package
	for _, dir := range dirs {
		path, err := w.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		p, err := w.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// importPathFor maps a directory inside the module to its import path.
func (w *World) importPathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(w.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, w.ModuleRoot)
	}
	if rel == "." {
		return w.ModulePath, nil
	}
	return w.ModulePath + "/" + filepath.ToSlash(rel), nil
}
