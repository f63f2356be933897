package query

import (
	"testing"
)

func TestParseExprBase(t *testing.T) {
	e, err := ParseExpr("  R  ")
	if err != nil {
		t.Fatal(err)
	}
	if e.NumTables() != 1 || !e.HasTable("R") {
		t.Errorf("tables = %v", e.Tables())
	}
}

func TestParseExprSingleJoin(t *testing.T) {
	e, err := ParseExpr("R JOIN S ON R.x = S.y")
	if err != nil {
		t.Fatal(err)
	}
	want := MustNewExpr(pred("R", "x", "S", "y"))
	if !e.Equal(want) {
		t.Errorf("parsed %q, want %q", e.Canonical(), want.Canonical())
	}
}

func TestParseExprMultiJoinAndKeywordCase(t *testing.T) {
	e, err := ParseExpr("R join S on R.x = S.y JOIN T ON S.z = T.w AND S.u = T.v")
	if err != nil {
		t.Fatal(err)
	}
	want := MustNewExpr(
		pred("R", "x", "S", "y"),
		pred("S", "z", "T", "w"),
		pred("S", "u", "T", "v"),
	)
	if !e.Equal(want) {
		t.Errorf("parsed %q, want %q", e.Canonical(), want.Canonical())
	}
}

func TestParseSIT(t *testing.T) {
	s, err := ParseSIT("S.a | R JOIN S ON R.x = S.y")
	if err != nil {
		t.Fatal(err)
	}
	if s.Table != "S" || s.Attr != "a" {
		t.Errorf("target = %s.%s", s.Table, s.Attr)
	}
	if s.Expr.NumTables() != 2 {
		t.Errorf("expr tables = %v", s.Expr.Tables())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                          // empty
		"R JOIN S",                  // missing ON
		"R JOIN S ON R.x",           // missing =
		"R JOIN S ON R.x = S",       // unqualified right side
		"R JOIN S ON R.x = S.y AND", // dangling AND
		"R JOIN S ON x = y",         // unqualified attrs
		"R S",                       // missing JOIN keyword
		"R JOIN S ON R.x = R.y",     // self join
		"R JOIN S ON T.x = U.y",     // predicate tables disconnected from R
		"R @ S",                     // bad character
		"T1 JOIN T9 ON T1.a = T2.b", // ON predicate does not reference the joined table
		"T1 JOIN T2 ON T1.a = T2.b JOIN T3 ON T1.a = T2.b", // nor here: T3 would be dropped
	}
	for _, s := range bad {
		if _, err := ParseExpr(s); err == nil {
			t.Errorf("ParseExpr(%q): want error", s)
		}
	}
	badSIT := []string{
		"no pipe here",
		"S.a",                           // no expression
		".a | R JOIN S ON R.x = S.y",    // empty table
		"S. | R JOIN S ON R.x = S.y",    // empty attr
		"Z.a | R JOIN S ON R.x = S.y",   // target table not in expr
		"S.a.b | R JOIN S ON R.x = S.y", // too many dots
	}
	for _, s := range badSIT {
		if _, err := ParseSIT(s); err == nil {
			t.Errorf("ParseSIT(%q): want error", s)
		}
	}
}

func TestParseLeadingTableMustConnect(t *testing.T) {
	// Leading table X never appears in the predicates.
	if _, err := ParseExpr("X JOIN S ON R.x = S.y"); err == nil {
		t.Error("leading table not in predicates: want error")
	}
}

func TestParseUnderscoreAndDigits(t *testing.T) {
	e, err := ParseExpr("T_1 JOIN T_2 ON T_1.col_9 = T_2.col_1")
	if err != nil {
		t.Fatal(err)
	}
	if !e.HasTable("T_1") || !e.HasTable("T_2") {
		t.Errorf("tables = %v", e.Tables())
	}
}
