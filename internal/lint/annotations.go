package lint

import (
	"go/ast"
	"go/types"
	"os"
	"strings"
)

const (
	directiveHot     = "statcheck:hot"
	directiveScratch = "statcheck:scratch"
	directiveIgnore  = "statcheck:ignore"
)

// collectAnnotations harvests the package's statcheck directives: hot
// functions, scratch types, and positional ignore entries.
func (p *Package) collectAnnotations() {
	p.Scratch = map[types.Object]bool{}
	p.ignores = map[string][]ignoreDirective{}
	for _, f := range p.Files {
		filename := p.Fset.Position(f.Pos()).Filename
		src, srcErr := os.ReadFile(filename)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, directiveIgnore)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				checks := map[string]bool{}
				for _, name := range strings.Split(fields[0], ",") {
					if name != "" {
						checks[name] = true
					}
				}
				pos := p.Fset.Position(c.Pos())
				p.ignores[filename] = append(p.ignores[filename], ignoreDirective{
					line:       pos.Line,
					standalone: srcErr == nil && standaloneAt(src, pos.Offset),
					checks:     checks,
				})
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if hasDirective(d.Doc, directiveHot) {
					p.Hot = append(p.Hot, d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if hasDirective(ts.Doc, directiveScratch) || hasDirective(d.Doc, directiveScratch) {
						if obj := p.Info.Defs[ts.Name]; obj != nil {
							p.Scratch[obj] = true
						}
					}
				}
			}
		}
	}
}

// standaloneAt reports whether the comment starting at offset is alone on its
// source line (only whitespace precedes it).
func standaloneAt(src []byte, offset int) bool {
	if offset > len(src) {
		return false
	}
	start := offset
	for start > 0 && src[start-1] != '\n' {
		start--
	}
	return len(strings.TrimSpace(string(src[start:offset]))) == 0
}

// hasDirective reports whether the comment group contains the directive as a
// full "//statcheck:..." line.
func hasDirective(cg *ast.CommentGroup, directive string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}
