//go:build !race

package serve

import (
	"testing"

	"github.com/sitstats/sits/internal/cardest"
	"github.com/sitstats/sits/internal/sit"
)

// TestTierAllocs bounds the heap allocations of one request per tier: a
// result hit allocates nothing, a plan hit at most the estimate's sources,
// and a cold request (statistics memoized) at most a dozen. The race
// detector's instrumentation allocates, so the bounds hold without it only.
func TestTierAllocs(t *testing.T) {
	exprs := parseRaceExprs(t)
	q := normalize(cardest.SPJQuery{
		Expr: exprs[3],
		Preds: []cardest.Predicate{
			{Table: "T3", Attr: "a", Lo: 0, Hi: 1200},
			{Table: "T2", Attr: "a", Lo: 50, Hi: 1900},
		},
	})
	other := normalize(cardest.SPJQuery{
		Expr:  exprs[4],
		Preds: []cardest.Predicate{{Table: "T4", Attr: "b", Lo: 0, Hi: 700}},
	})
	svc, _ := newRaceService(t, sit.DefaultConfig(), Config{})
	svc.cache, svc.plans = newLRU[cardest.Estimate](1), newLRU[*cardest.EstimatorPlan](1)
	for _, r := range []cardest.SPJQuery{other, q} {
		if _, _, err := svc.Estimate(r); err != nil {
			t.Fatal(err)
		}
	}

	// With one-entry caches, alternating two shapes makes every request cold.
	pop := make([]cardest.SPJQuery, 8)
	for k := range pop {
		pop[k] = shifted(q, int64(k+1))
		if k%2 == 1 {
			pop[k] = shifted(other, int64(k+1))
		}
	}
	i := 0
	cold := testing.AllocsPerRun(50, func() {
		i++
		if _, tier, err := svc.Estimate(pop[i%len(pop)]); err != nil || tier != TierCold {
			t.Fatalf("tier %v err %v, want cold", tier, err)
		}
	})

	// One shape with shifted constants: every request executes the cached plan.
	for k := range pop {
		pop[k] = shifted(q, int64(k+1))
	}
	if _, _, err := svc.Estimate(q); err != nil {
		t.Fatal(err)
	}
	planHit := testing.AllocsPerRun(50, func() {
		i++
		if _, tier, err := svc.Estimate(pop[i%len(pop)]); err != nil || tier != TierPlan {
			t.Fatalf("tier %v err %v, want plan-hit", tier, err)
		}
	})

	if _, _, err := svc.Estimate(pop[0]); err != nil {
		t.Fatal(err)
	}
	resultHit := testing.AllocsPerRun(50, func() {
		if _, tier, err := svc.Estimate(pop[0]); err != nil || tier != TierResult {
			t.Fatalf("tier %v err %v, want result-hit", tier, err)
		}
	})
	t.Logf("allocations per request: result-hit %v, plan-hit %v, cold %v", resultHit, planHit, cold)
	if resultHit != 0 || planHit > 2 || cold > 12 {
		t.Fatalf("allocations per request: result-hit %v (want 0), plan-hit %v (want <= 2), cold %v (want <= 12)",
			resultHit, planHit, cold)
	}
}
