package query

import (
	"fmt"
	"strings"
	"unicode"
)

// ParseSIT parses the textual SIT notation used by the command-line tools:
//
//	T.a | R JOIN S ON R.x = S.y JOIN T ON S.z = T.w
//
// The part before '|' names the statistic's table and attribute; the part
// after it is a generating expression as accepted by ParseExpr. The keywords
// JOIN, ON and AND are case-insensitive.
func ParseSIT(s string) (SITSpec, error) {
	parts := strings.SplitN(s, "|", 2)
	if len(parts) != 2 {
		return SITSpec{}, fmt.Errorf("query: SIT spec %q must have the form \"T.a | <expr>\"", s)
	}
	table, attr, err := parseQualifiedAttr(strings.TrimSpace(parts[0]))
	if err != nil {
		return SITSpec{}, err
	}
	expr, err := ParseExpr(parts[1])
	if err != nil {
		return SITSpec{}, err
	}
	return NewSITSpec(table, attr, expr)
}

// ParseExpr parses a join generating expression:
//
//	R JOIN S ON R.x = S.y [AND R.w = S.z] JOIN T ON S.u = T.v ...
//
// Every predicate of an ON clause must reference the table its JOIN names.
// A bare table name parses as a base-table expression.
func ParseExpr(s string) (*Expr, error) {
	toks, err := tokenize(s)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.parseExpr()
}

type token struct {
	kind string // "word", ".", "=", keyword ("JOIN", "ON", "AND")
	text string
}

func tokenize(s string) ([]token, error) {
	var toks []token
	i := 0
	rs := []rune(s)
	for i < len(rs) {
		r := rs[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case r == '.':
			toks = append(toks, token{kind: "."})
			i++
		case r == '=':
			toks = append(toks, token{kind: "="})
			i++
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_':
			j := i
			for j < len(rs) && (unicode.IsLetter(rs[j]) || unicode.IsDigit(rs[j]) || rs[j] == '_') {
				j++
			}
			word := string(rs[i:j])
			switch strings.ToUpper(word) {
			case "JOIN", "ON", "AND":
				toks = append(toks, token{kind: strings.ToUpper(word)})
			default:
				toks = append(toks, token{kind: "word", text: word})
			}
			i = j
		default:
			return nil, fmt.Errorf("query: unexpected character %q at offset %d", r, i)
		}
	}
	return toks, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token {
	if p.pos >= len(p.toks) {
		return token{kind: "eof"}
	}
	return p.toks[p.pos]
}

func (p *parser) next() token {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) expect(kind string) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, fmt.Errorf("query: expected %s, got %s %q (token %d)", kind, t.kind, t.text, p.pos)
	}
	return t, nil
}

func (p *parser) parseExpr() (*Expr, error) {
	first, err := p.expect("word")
	if err != nil {
		return nil, err
	}
	if p.peek().kind == "eof" {
		return NewBaseExpr(first.text)
	}
	var joins []JoinPred
	for p.peek().kind != "eof" {
		if _, err := p.expect("JOIN"); err != nil {
			return nil, err
		}
		joined, err := p.expect("word")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("ON"); err != nil {
			return nil, err
		}
		for {
			pred, err := p.parsePred()
			if err != nil {
				return nil, err
			}
			if pred.LeftTable != joined.text && pred.RightTable != joined.text {
				return nil, fmt.Errorf("query: predicate %q does not reference joined table %q", pred.String(), joined.text)
			}
			joins = append(joins, pred)
			if p.peek().kind != "AND" {
				break
			}
			p.next()
		}
	}
	expr, err := NewExpr(joins...)
	if err != nil {
		return nil, err
	}
	if !expr.HasTable(first.text) {
		return nil, fmt.Errorf("query: leading table %q not referenced by any join predicate", first.text)
	}
	return expr, nil
}

func (p *parser) parsePred() (JoinPred, error) {
	lt, la, err := p.parseAttrRef()
	if err != nil {
		return JoinPred{}, err
	}
	if _, err := p.expect("="); err != nil {
		return JoinPred{}, err
	}
	rt, ra, err := p.parseAttrRef()
	if err != nil {
		return JoinPred{}, err
	}
	pred := JoinPred{LeftTable: lt, LeftAttr: la, RightTable: rt, RightAttr: ra}
	return pred, pred.validate()
}

func (p *parser) parseAttrRef() (table, attr string, err error) {
	t, err := p.expect("word")
	if err != nil {
		return "", "", err
	}
	if _, err := p.expect("."); err != nil {
		return "", "", err
	}
	a, err := p.expect("word")
	if err != nil {
		return "", "", err
	}
	return t.text, a.text, nil
}

func parseQualifiedAttr(s string) (table, attr string, err error) {
	parts := strings.Split(s, ".")
	if len(parts) != 2 || strings.TrimSpace(parts[0]) == "" || strings.TrimSpace(parts[1]) == "" {
		return "", "", fmt.Errorf("query: %q is not a qualified attribute (want T.a)", s)
	}
	return strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]), nil
}
