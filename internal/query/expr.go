// Package query models the generating query expressions SITs are defined
// over (Definition 1 of the paper): sets of tables connected by equality join
// predicates. It provides join graphs, acyclicity checking, the join-tree
// construction of Section 3.2 (rooted at the table holding the SIT's
// attribute), the dependency sequences of Section 4.3 that drive multi-SIT
// scheduling, a canonical form used for materialized-view-style SIT matching
// in the cardinality estimator, and a small text parser for tools.
package query

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// JoinPred is one equality join predicate LeftTable.LeftAttr = RightTable.RightAttr.
type JoinPred struct {
	LeftTable, LeftAttr   string
	RightTable, RightAttr string
}

// String renders the predicate as "R.x = S.y".
func (p JoinPred) String() string {
	return p.LeftTable + "." + p.LeftAttr + " = " + p.RightTable + "." + p.RightAttr
}

// normalized returns the predicate with its two sides in lexicographic order,
// so equal predicates written in either direction compare equal.
func (p JoinPred) normalized() JoinPred {
	if p.LeftTable > p.RightTable || (p.LeftTable == p.RightTable && p.LeftAttr > p.RightAttr) {
		return JoinPred{
			LeftTable: p.RightTable, LeftAttr: p.RightAttr,
			RightTable: p.LeftTable, RightAttr: p.LeftAttr,
		}
	}
	return p
}

func (p JoinPred) validate() error {
	if p.LeftTable == "" || p.LeftAttr == "" || p.RightTable == "" || p.RightAttr == "" {
		return fmt.Errorf("query: join predicate %q has empty components", p.String())
	}
	if p.LeftTable == p.RightTable {
		return fmt.Errorf("query: self-join predicate %q not supported", p.String())
	}
	return nil
}

// Expr is a join generating query expression over a set of tables. A valid
// Expr is connected; SIT creation additionally requires it to be acyclic.
// An Expr over a single table with no joins represents a base table (whose
// "SIT" is an ordinary base-table histogram).
type Expr struct {
	tables []string // sorted, unique
	joins  []JoinPred

	// norm caches the canonical form, computed on first use. An Expr is
	// immutable after construction, so racing first uses compute the same
	// value and either store wins.
	norm atomic.Pointer[normForm]
}

// normForm is an expression's canonical string, its normalized join
// predicates in canonical order, and whether its join graph is acyclic.
type normForm struct {
	canonical string
	preds     []JoinPred
	acyclic   bool
}

// NewExpr builds an expression from join predicates; the table set is
// derived from the predicates. Use NewBaseExpr for single-table expressions.
func NewExpr(joins ...JoinPred) (*Expr, error) {
	if len(joins) == 0 {
		return nil, fmt.Errorf("query: NewExpr needs at least one join predicate; use NewBaseExpr for base tables")
	}
	set := map[string]bool{}
	e := &Expr{}
	for _, j := range joins {
		if err := j.validate(); err != nil {
			return nil, err
		}
		set[j.LeftTable] = true
		set[j.RightTable] = true
		// A predicate repeated, in either direction, adds nothing.
		n := j.normalized()
		if !slices.ContainsFunc(e.joins, func(k JoinPred) bool { return k.normalized() == n }) {
			e.joins = append(e.joins, j)
		}
	}
	for t := range set {
		e.tables = append(e.tables, t)
	}
	sort.Strings(e.tables)
	if !e.connected() {
		return nil, fmt.Errorf("query: expression %q is not connected", e.String())
	}
	return e, nil
}

// MustNewExpr is NewExpr that panics on error.
func MustNewExpr(joins ...JoinPred) *Expr {
	e, err := NewExpr(joins...)
	if err != nil {
		panic(err)
	}
	return e
}

// NewBaseExpr builds the trivial expression over a single base table.
func NewBaseExpr(table string) (*Expr, error) {
	if table == "" {
		return nil, fmt.Errorf("query: base expression needs a table name")
	}
	return &Expr{tables: []string{table}}, nil
}

// Chain builds the left-deep chain expression
// tables[0] ⋈ tables[1] ⋈ ... where the i-th join predicate is
// tables[i].outAttrs[i] = tables[i+1].inAttrs[i].
func Chain(tables, outAttrs, inAttrs []string) (*Expr, error) {
	if len(tables) < 2 {
		return nil, fmt.Errorf("query: Chain needs at least 2 tables")
	}
	if len(outAttrs) != len(tables)-1 || len(inAttrs) != len(tables)-1 {
		return nil, fmt.Errorf("query: Chain needs %d join attribute pairs, got %d/%d",
			len(tables)-1, len(outAttrs), len(inAttrs))
	}
	joins := make([]JoinPred, len(tables)-1)
	for i := 0; i < len(tables)-1; i++ {
		joins[i] = JoinPred{
			LeftTable: tables[i], LeftAttr: outAttrs[i],
			RightTable: tables[i+1], RightAttr: inAttrs[i],
		}
	}
	return NewExpr(joins...)
}

// Tables returns the sorted table names of the expression.
func (e *Expr) Tables() []string { return append([]string(nil), e.tables...) }

// Joins returns the join predicates of the expression.
func (e *Expr) Joins() []JoinPred { return append([]JoinPred(nil), e.joins...) }

// NumTables returns the number of tables.
func (e *Expr) NumTables() int { return len(e.tables) }

// Table returns the i-th table in sorted order, without copying the table
// list as Tables does.
func (e *Expr) Table(i int) string { return e.tables[i] }

// NumJoins returns the number of join predicates.
func (e *Expr) NumJoins() int { return len(e.joins) }

// Join returns the i-th join predicate, without copying the predicate list
// as Joins does.
func (e *Expr) Join(i int) JoinPred { return e.joins[i] }

// HasTable reports whether the expression references the table.
func (e *Expr) HasTable(t string) bool {
	i := sort.SearchStrings(e.tables, t)
	return i < len(e.tables) && e.tables[i] == t
}

// adjacency returns, per table, the set of neighboring tables (collapsing
// multiple predicates between the same pair into one edge).
func (e *Expr) adjacency() map[string]map[string]bool {
	adj := map[string]map[string]bool{}
	for _, t := range e.tables {
		adj[t] = map[string]bool{}
	}
	for _, j := range e.joins {
		adj[j.LeftTable][j.RightTable] = true
		adj[j.RightTable][j.LeftTable] = true
	}
	return adj
}

func (e *Expr) connected() bool {
	if len(e.tables) == 0 {
		return false
	}
	adj := e.adjacency()
	seen := map[string]bool{e.tables[0]: true}
	stack := []string{e.tables[0]}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for n := range adj[t] {
			if !seen[n] {
				seen[n] = true
				stack = append(stack, n)
			}
		}
	}
	return len(seen) == len(e.tables)
}

// IsAcyclic reports whether the join graph is acyclic (a tree, since valid
// expressions are connected): the class of generating queries Sweep handles
// (Section 3.2). It is computed once per Expr, with the canonical form.
func (e *Expr) IsAcyclic() bool { return e.normal().acyclic }

// Canonical returns a normalized string form usable as a map key: equal
// expressions (same tables and predicates, in any order or direction) yield
// equal canonical strings. It is computed once per Expr.
func (e *Expr) Canonical() string { return e.normal().canonical }

// normal returns the cached canonical form, computing it on first use.
func (e *Expr) normal() *normForm {
	if n := e.norm.Load(); n != nil {
		return n
	}
	type rendered struct {
		p JoinPred
		s string
	}
	rs := make([]rendered, len(e.joins))
	size := len(e.tables) + 2
	for i, j := range e.joins {
		n := j.normalized()
		rs[i] = rendered{n, n.String()}
		size += len(rs[i].s) + len(" AND ")
	}
	slices.SortFunc(rs, func(a, b rendered) int { return strings.Compare(a.s, b.s) })
	for _, t := range e.tables {
		size += len(t)
	}
	var sb strings.Builder
	sb.Grow(size)
	for i, t := range e.tables {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(t)
	}
	sb.WriteByte('{')
	n := &normForm{preds: make([]JoinPred, len(rs))}
	for i, r := range rs {
		if i > 0 {
			sb.WriteString(" AND ")
		}
		sb.WriteString(r.s)
		n.preds[i] = r.p
	}
	sb.WriteByte('}')
	n.canonical = sb.String()
	// A connected graph is a tree iff #edges == #nodes - 1, counting
	// multi-predicate table pairs once, at their first predicate.
	edges := 0
	for i, p := range n.preds {
		if slices.IndexFunc(n.preds, func(q JoinPred) bool { return q.LeftTable == p.LeftTable && q.RightTable == p.RightTable }) == i {
			edges++
		}
	}
	n.acyclic = edges == len(e.tables)-1
	e.norm.Store(n)
	return n
}

// Contains reports whether sub is a sub-expression of e: every table and
// every join predicate of sub (in either direction) also appears in e. This
// is the applicability test of SIT matching (Section 2.2), restricted to
// join expressions.
func (e *Expr) Contains(sub *Expr) bool {
	for _, t := range sub.tables {
		if !e.HasTable(t) {
			return false
		}
	}
	have := e.normal().preds
	for _, p := range sub.normal().preds {
		found := false
		for _, q := range have {
			if q == p {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Equal reports whether two expressions are semantically equal.
func (e *Expr) Equal(o *Expr) bool {
	return o != nil && e.Canonical() == o.Canonical()
}

// String renders the expression in parseable form:
// "T1 JOIN T2 ON T1.x = T2.y JOIN T3 ON ...". Tables are emitted in a
// deterministic traversal from the lexicographically first table; each
// table's ON clause holds every predicate between it and the tables before
// it, so every predicate references the table its JOIN names.
func (e *Expr) String() string {
	if len(e.joins) == 0 {
		return e.tables[0]
	}
	var sb strings.Builder
	sb.WriteString(e.tables[0])
	emitted := map[string]bool{e.tables[0]: true}
	remaining := append([]JoinPred(nil), e.joins...)
	for len(remaining) > 0 {
		i := slices.IndexFunc(remaining, func(j JoinPred) bool { return emitted[j.LeftTable] != emitted[j.RightTable] })
		if i < 0 { // unreachable for connected expressions
			break
		}
		newT := remaining[i].RightTable
		if emitted[newT] {
			newT = remaining[i].LeftTable
		}
		emitted[newT] = true
		sep := " JOIN " + newT + " ON "
		rest := remaining[:0]
		for _, j := range remaining {
			if (j.LeftTable == newT || j.RightTable == newT) && emitted[j.LeftTable] && emitted[j.RightTable] {
				sb.WriteString(sep)
				sb.WriteString(j.String())
				sep = " AND "
			} else {
				rest = append(rest, j)
			}
		}
		remaining = rest
	}
	return sb.String()
}

// SITSpec names a statistic over a query expression: SIT(Table.Attr | Expr),
// per Definition 1.
type SITSpec struct {
	Table string
	Attr  string
	Expr  *Expr
}

// NewSITSpec validates that the attribute's table appears in the expression.
func NewSITSpec(table, attr string, expr *Expr) (SITSpec, error) {
	if table == "" || attr == "" {
		return SITSpec{}, fmt.Errorf("query: SIT spec needs table and attribute")
	}
	if expr == nil {
		return SITSpec{}, fmt.Errorf("query: SIT spec needs a generating expression")
	}
	if !expr.HasTable(table) {
		return SITSpec{}, fmt.Errorf("query: SIT attribute table %q not in expression %q", table, expr.String())
	}
	return SITSpec{Table: table, Attr: attr, Expr: expr}, nil
}

// String renders "SIT(T.a | <expr>)".
func (s SITSpec) String() string {
	return fmt.Sprintf("SIT(%s.%s | %s)", s.Table, s.Attr, s.Expr.String())
}

// Canonical returns a map key identifying the SIT up to expression
// normalization.
func (s SITSpec) Canonical() string {
	return s.Table + "." + s.Attr + "|" + s.Expr.Canonical()
}

// IsBase reports whether the spec denotes an ordinary base-table statistic.
func (s SITSpec) IsBase() bool { return len(s.Expr.joins) == 0 }

// ConnectedSubExprs enumerates the connected sub-expressions of e that
// contain the anchor table and at least one join predicate, up to maxTables
// tables. Multi-predicate edges are kept intact (an edge's predicates are
// either all in or all out), and sub-expressions that would close a cycle are
// skipped, so every result is a valid acyclic generating query when e is
// acyclic. The enumeration is the candidate space for SIT matching and
// advisor-style selection.
func (e *Expr) ConnectedSubExprs(anchor string, maxTables int) ([]*Expr, error) {
	if !e.HasTable(anchor) {
		return nil, fmt.Errorf("query: anchor table %q not in expression %q", anchor, e.String())
	}
	if maxTables < 2 {
		return nil, fmt.Errorf("query: maxTables %d must be at least 2", maxTables)
	}
	type edge struct {
		t1, t2 string
		preds  []JoinPred
	}
	edgeIdx := map[[2]string]int{}
	var edges []edge
	for _, j := range e.joins {
		a, b := j.LeftTable, j.RightTable
		if a > b {
			a, b = b, a
		}
		k := [2]string{a, b}
		if i, ok := edgeIdx[k]; ok {
			edges[i].preds = append(edges[i].preds, j)
			continue
		}
		edgeIdx[k] = len(edges)
		edges = append(edges, edge{t1: a, t2: b, preds: []JoinPred{j}})
	}
	seen := map[string]bool{}
	var out []*Expr
	inSet := map[int]bool{}
	var grow func(tables map[string]bool, used []int) error
	grow = func(tables map[string]bool, used []int) error {
		if len(used) > 0 {
			var preds []JoinPred
			for _, ei := range used {
				preds = append(preds, edges[ei].preds...)
			}
			sub, err := NewExpr(preds...)
			if err != nil {
				return err
			}
			if key := sub.Canonical(); !seen[key] {
				seen[key] = true
				out = append(out, sub)
			}
		}
		if len(tables) >= maxTables {
			return nil
		}
		for ei, ed := range edges {
			if inSet[ei] {
				continue
			}
			in1, in2 := tables[ed.t1], tables[ed.t2]
			if in1 == in2 { // disconnected, or both in (would close a cycle)
				continue
			}
			newTable := ed.t1
			if in1 {
				newTable = ed.t2
			}
			tables[newTable] = true
			inSet[ei] = true
			if err := grow(tables, append(used, ei)); err != nil {
				return err
			}
			delete(tables, newTable)
			delete(inSet, ei)
		}
		return nil
	}
	if err := grow(map[string]bool{anchor: true}, nil); err != nil {
		return nil, err
	}
	return out, nil
}
