package query

import (
	"testing"
)

// FuzzParseExpr feeds the expression parser arbitrary text. It must never
// panic, and an accepted expression must (1) render to text that parses
// back to the same canonical form, (2) hold no predicate twice, (3) consist
// of tables the input names, and (4) contain the leading table and every
// table named after a JOIN.
func FuzzParseExpr(f *testing.F) {
	for _, s := range []string{
		"R",
		"R JOIN S ON R.x = S.y",
		"R join S on R.x = S.y JOIN T ON S.z = T.w AND S.u = T.v",
		"T_1 JOIN T_2 ON T_1.col_9 = T_2.col_1",
		"R JOIN S ON R.x = R.y",
		"R @ S",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		e, err := ParseExpr(s)
		if err != nil {
			return
		}
		back, err := ParseExpr(e.String())
		if err != nil {
			t.Fatalf("%q parses to %q, which does not reparse: %v", s, e.String(), err)
		}
		if back.Canonical() != e.Canonical() {
			t.Fatalf("%q: canonical %q, reparsed from %q as %q", s, e.Canonical(), e.String(), back.Canonical())
		}
		preds := e.normal().preds
		for i := 1; i < len(preds); i++ {
			if preds[i] == preds[i-1] {
				t.Fatalf("%q: predicate %q held twice in %q", s, preds[i].String(), e.Canonical())
			}
		}
		toks, err := tokenize(s)
		if err != nil {
			t.Fatalf("%q parsed but does not tokenize: %v", s, err)
		}
		named := map[string]bool{}
		for _, tok := range toks {
			if tok.kind == "word" {
				named[tok.text] = true
			}
		}
		for _, table := range e.Tables() {
			if !named[table] {
				t.Fatalf("%q: table %q of %q is not in the input", s, table, e.Canonical())
			}
		}
		for i, tok := range toks {
			if (i == 0 || toks[i-1].kind == "JOIN") && !e.HasTable(tok.text) {
				t.Fatalf("%q: table %q is missing from %q", s, tok.text, e.Canonical())
			}
		}
	})
}
