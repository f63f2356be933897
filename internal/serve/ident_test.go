package serve

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"github.com/sitstats/sits/internal/cardest"
	"github.com/sitstats/sits/internal/sit"
)

// stringPin renders a pin the way Registry.PlanPin does: 'e' and the epoch,
// then each table of the expression with its generation, NUL-separated.
func stringPin(q cardest.SPJQuery, pin []uint64) string {
	var sb strings.Builder
	sb.WriteString("e" + strconv.FormatUint(pin[0], 10))
	for i, gen := range pin[1:] {
		sb.WriteString("\x00" + q.Expr.Table(i) + "@" + strconv.FormatUint(gen, 10))
	}
	return sb.String()
}

// stringResultKey is the string result-cache key the serving layer used
// before identities were fingerprinted: canonical expression, normalized
// predicates with constants, and the string pin, NUL-separated.
func stringResultKey(q cardest.SPJQuery, pin []uint64) string {
	var sb strings.Builder
	sb.WriteString(q.Expr.Canonical())
	for _, p := range q.Preds {
		sb.WriteString("\x00" + p.Table + "." + p.Attr + ":" +
			strconv.FormatInt(p.Lo, 10) + ":" + strconv.FormatInt(p.Hi, 10))
	}
	sb.WriteString("\x00" + stringPin(q, pin))
	return sb.String()
}

// stringPlanKey is the matching string plan-cache key: the query shape and
// the string pin.
func stringPlanKey(q cardest.SPJQuery, pin []uint64) string {
	return cardest.ShapeKey(q.Expr, cardest.Columns(q.Preds)) + "\x00" + stringPin(q, pin)
}

// keyedRequest is a normalized request with its snapshot pin.
type keyedRequest struct {
	q   cardest.SPJQuery
	pin []uint64
}

func (r keyedRequest) ident(consts bool) ident {
	return ident{canon: r.q.Expr.Canonical(), preds: r.q.Preds, consts: consts, pin: r.pin}
}

// fingerprint returns the request's fingerprint in one tier.
func (r keyedRequest) fingerprint(consts bool) uint64 {
	shape, result := fingerprints(r.q.Expr.Canonical(), r.q.Preds, r.pin)
	if consts {
		return result
	}
	return shape
}

// TestFingerprintMatchesStringKeys checks the fingerprinted identities against
// the string keys they replaced, as an oracle: over seeded request pairs,
// two requests have equal string keys exactly when their identities are
// equal, in both tiers, and equal identities have equal fingerprints. The
// pairs include repeats, permuted predicates, the same shape with other
// constants, other columns, bumped pins, and unrelated requests. Expressions
// are parsed twice, so equal expressions are often distinct objects.
func TestFingerprintMatchesStringKeys(t *testing.T) {
	exprs := append(parseRaceExprs(t), parseRaceExprs(t)...)
	rng := rand.New(rand.NewSource(34))
	draw := func() keyedRequest {
		q := randomQuery(exprs, rng, 3, 4)
		pin := make([]uint64, 1+q.Expr.NumTables())
		for i := range pin {
			pin[i] = uint64(rng.Intn(3))
		}
		return keyedRequest{q, pin}
	}
	const pairs = 12000
	var equalResults, equalPlans int
	for n := 0; n < pairs; n++ {
		a := draw()
		b := keyedRequest{q: a.q, pin: append([]uint64(nil), a.pin...)}
		preds := append([]cardest.Predicate(nil), a.q.Preds...)
		switch n % 6 {
		case 0: // the same request
		case 1: // the same conjunction, permuted before normalization
			rng.Shuffle(len(preds), func(i, j int) { preds[i], preds[j] = preds[j], preds[i] })
		case 2: // the same shape, another constant
			if len(preds) > 0 {
				preds[rng.Intn(len(preds))].Hi += int64(1 + rng.Intn(2))
			}
		case 3: // another column
			if len(preds) > 0 {
				preds[rng.Intn(len(preds))].Attr = "d"
			}
		case 4: // a bumped pin word
			b.pin[rng.Intn(len(b.pin))]++
		case 5: // an unrelated request
			b = draw()
			preds = b.q.Preds
		}
		b.q = normalize(cardest.SPJQuery{Expr: b.q.Expr, Preds: preds})
		for _, consts := range []bool{true, false} {
			oldA, oldB := stringPlanKey(a.q, a.pin), stringPlanKey(b.q, b.pin)
			if consts {
				oldA, oldB = stringResultKey(a.q, a.pin), stringResultKey(b.q, b.pin)
			}
			ia, ib := a.ident(consts), b.ident(consts)
			eq := ia.equal(&ib)
			if eq != (oldA == oldB) || eq != ib.equal(&ia) {
				t.Fatalf("pair %d (consts=%v): string keys equal %v, identities equal %v\n a %q\n b %q",
					n, consts, oldA == oldB, eq, oldA, oldB)
			}
			if fa, fb := a.fingerprint(consts), b.fingerprint(consts); eq && fa != fb {
				t.Fatalf("pair %d (consts=%v): equal identities, fingerprints %x and %x", n, consts, fa, fb)
			}
			if eq && consts {
				equalResults++
			} else if eq {
				equalPlans++
			}
		}
	}
	// Both outcomes must be well represented in both tiers.
	if equalResults < pairs/5 || equalResults > pairs*4/5 || equalPlans < pairs/5 || equalPlans > pairs*4/5 {
		t.Fatalf("%d result and %d plan pairs equal of %d: the pair mix does not test both outcomes", equalResults, equalPlans, pairs)
	}
}

// TestFingerprintCollision forces two distinct identities onto one
// fingerprint. In each cache a lookup of the identity not stored is a miss
// and the later put wins the slot; in the flight map the second identity
// leads a flight of its own instead of joining the first's.
func TestFingerprintCollision(t *testing.T) {
	exprs := parseRaceExprs(t)
	a := keyedRequest{
		q:   cardest.SPJQuery{Expr: exprs[0], Preds: []cardest.Predicate{{Table: "T2", Attr: "a", Lo: 0, Hi: 900}}},
		pin: []uint64{1, 2, 3},
	}
	b := keyedRequest{
		q:   cardest.SPJQuery{Expr: exprs[0], Preds: []cardest.Predicate{{Table: "T2", Attr: "b", Lo: 0, Hi: 900}}},
		pin: []uint64{1, 2, 3},
	}
	const h = 42

	results := newLRU[cardest.Estimate](4)
	ra, rb := a.ident(true), b.ident(true)
	results.put(h, &ra, cardest.Estimate{Cardinality: 1})
	if _, ok := results.get(h, &rb); ok {
		t.Fatal("result cache: a colliding identity hit another's entry")
	}
	if est, ok := results.get(h, &ra); !ok || est.Cardinality != 1 {
		t.Fatalf("result cache: stored identity missed (%v, %v)", est, ok)
	}
	results.put(h, &rb, cardest.Estimate{Cardinality: 2})
	if _, ok := results.get(h, &ra); ok {
		t.Fatal("result cache: the overwritten identity still hits")
	}
	if est, ok := results.get(h, &rb); !ok || est.Cardinality != 2 || results.len() != 1 {
		t.Fatalf("result cache: later put lost (%v, %v, %d entries)", est, ok, results.len())
	}

	plans := newLRU[*cardest.EstimatorPlan](4)
	pa, pb := a.ident(false), b.ident(false)
	planA, planB := &cardest.EstimatorPlan{}, &cardest.EstimatorPlan{}
	plans.put(h, &pa, planA)
	if _, ok := plans.get(h, &pb); ok {
		t.Fatal("plan cache: a colliding shape hit another's plan")
	}
	plans.put(h, &pb, planB)
	if p, ok := plans.get(h, &pb); !ok || p != planB || plans.len() != 1 {
		t.Fatalf("plan cache: later put lost (%v, %d entries)", ok, plans.len())
	}
	if _, ok := plans.get(h, &pa); ok {
		t.Fatal("plan cache: the overwritten shape still hits")
	}

	svc, _ := newRaceService(t, sit.DefaultConfig(), Config{})
	fa, leadA := svc.join(h, a.q, a.pin)
	fb, leadB := svc.join(h, b.q, b.pin)
	if !leadA || !leadB || fa == fb {
		t.Fatalf("flights: distinct shapes share a flight (lead %v/%v, same %v)", leadA, leadB, fa == fb)
	}
	if f, lead := svc.join(h, a.q, a.pin); lead || f != fa {
		t.Fatal("flights: an equal shape did not follow the registered flight")
	}
	svc.retire(h, fb)
	if f, lead := svc.join(h, a.q, a.pin); lead || f != fa {
		t.Fatal("flights: retiring the unregistered flight removed the registered one")
	}
	svc.retire(h, fa)
	if len(svc.flights) != 0 {
		t.Fatalf("flights: %d left after both retired", len(svc.flights))
	}
}
