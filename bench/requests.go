package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"

	"github.com/sitstats/sits"
)

// predCol is one predicate column of a query shape with the value domain its
// constants are drawn from.
type predCol struct {
	table, attr string
	domain      int64
}

// template is one query shape: a join expression plus predicate columns.
// Requests instantiate it with constants.
type template struct {
	query   string // ParseExpr notation
	escaped string // query, URL-escaped once
	expr    *sits.Expr
	preds   []predCol
}

func (w workload) newTemplate(ts templateSpec) (*template, error) {
	q := chainQuery(ts.from, ts.to)
	expr, err := sits.ParseExpr(q)
	if err != nil {
		return nil, err
	}
	t := &template{query: q, escaped: url.QueryEscape(q), expr: expr}
	for _, col := range ts.cols {
		table, attr, ok := strings.Cut(col, ".")
		if !ok {
			return nil, fmt.Errorf("bench: bad template column %q", col)
		}
		t.preds = append(t.preds, predCol{table, attr, w.columnDomain(attr)})
	}
	return t, nil
}

const (
	// shapePopulationSize is how many distinct query shapes the cold traffic
	// draws from: 8x the default 1024-entry plan cache.
	shapePopulationSize = 8192
	// maxShapePreds bounds the predicate-column subsets. Sizes 1-4 over the
	// six sub-chains give 7882 shapes, just short of the population, so
	// subsets go up to 5 columns (20958 shapes) and the population is a
	// seeded sample of them.
	maxShapePreds = 5
)

// allShapes enumerates every (sub-chain, predicate-column subset) pair in a
// fixed order.
func allShapes() []templateSpec {
	var out []templateSpec
	for from := 0; from < numTables; from++ {
		for to := from + 1; to < numTables; to++ {
			var cols []string
			for i := from; i <= to; i++ {
				for _, c := range columns(i) {
					cols = append(cols, tableName(i)+"."+c)
				}
			}
			var pick func(start int, chosen []string)
			pick = func(start int, chosen []string) {
				if len(chosen) > 0 {
					out = append(out, templateSpec{from, to, append([]string(nil), chosen...)})
				}
				if len(chosen) == maxShapePreds {
					return
				}
				for i := start; i < len(cols); i++ {
					pick(i+1, append(chosen, cols[i]))
				}
			}
			pick(0, nil)
		}
	}
	return out
}

// shapePopulation draws the workload's cold-traffic population: a seeded
// sample of shapePopulationSize distinct shapes.
func (w workload) shapePopulation(seed int64) ([]*template, error) {
	all := allShapes()
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	out := make([]*template, shapePopulationSize)
	for i := range out {
		t, err := w.newTemplate(all[i])
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// traffic generates a workload's estimate requests.
type traffic struct {
	w         workload
	templates []*template
	shapes    []*template
}

func newTraffic(w workload, seed int64) (*traffic, error) {
	tf := &traffic{w: w}
	for _, ts := range w.templates {
		t, err := w.newTemplate(ts)
		if err != nil {
			return nil, err
		}
		tf.templates = append(tf.templates, t)
	}
	if w.shapeShare > 0 {
		var err error
		if tf.shapes, err = w.shapePopulation(seed); err != nil {
			return nil, err
		}
	}
	return tf, nil
}

// clientRNG is client c's generator in the given phase: every client renders
// its own stream, so the union workload is reproducible at any client count.
func clientRNG(seed int64, phase, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(phase)*1009 + int64(c)))
}

// request is one estimate request: a shape plus constants.
type request struct {
	tmpl  *template
	preds []sits.Predicate
}

// next draws the client's next request.
func (tf *traffic) next(rng *rand.Rand) request {
	var t *template
	if len(tf.templates) == 0 || (len(tf.shapes) > 0 && rng.Float64() < tf.w.shapeShare) {
		t = tf.shapes[rng.Intn(len(tf.shapes))]
	} else {
		t = tf.templates[rng.Intn(len(tf.templates))]
	}
	r := request{tmpl: t, preds: make([]sits.Predicate, len(t.preds))}
	for i, pc := range t.preds {
		quantum := int64(1)
		if tf.w.quantumDiv > 0 {
			quantum = max(1, pc.domain/tf.w.quantumDiv)
		}
		steps := max(1, pc.domain/quantum)
		lo := quantum * rng.Int63n(steps)
		hi := lo + quantum*(1+rng.Int63n(steps-lo/quantum))
		r.preds[i] = sits.Predicate{Table: pc.table, Attr: pc.attr, Lo: lo, Hi: hi}
	}
	return r
}

func (r request) query() sits.SPJQuery { return sits.SPJQuery{Expr: r.tmpl.expr, Preds: r.preds} }

// url renders the request as a GET /estimate URL.
func (r request) url(base string) string {
	var sb strings.Builder
	sb.WriteString(base)
	sb.WriteString("/estimate?query=")
	sb.WriteString(r.tmpl.escaped)
	sb.WriteString("&pred=")
	for i, p := range r.preds {
		if i > 0 {
			sb.WriteString("%2C")
		}
		sb.WriteString(p.Table)
		sb.WriteByte('.')
		sb.WriteString(p.Attr)
		sb.WriteString("%3A")
		sb.WriteString(strconv.FormatInt(p.Lo, 10))
		sb.WriteString("%3A")
		sb.WriteString(strconv.FormatInt(p.Hi, 10))
	}
	return sb.String()
}

// String renders the request for diagnostics and sequence comparison.
func (r request) String() string { return r.url("") }
