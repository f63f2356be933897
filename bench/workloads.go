package main

import (
	"fmt"

	"github.com/sitstats/sits"
)

// The chain database every workload runs on: T1..T4 joined on
// Ti.jnext = T(i+1).jprev, each with the SIT attribute a (correlated with
// jprev), a wide uniform payload b and a narrow payload c.
const numTables = 4

func tableName(i int) string { return fmt.Sprintf("T%d", i+1) }

// chainQuery renders the chain sub-expression over tables [from, to]
// (0-based, inclusive) in the notation ParseExpr accepts.
func chainQuery(from, to int) string {
	q := tableName(from)
	for i := from; i < to; i++ {
		q += fmt.Sprintf(" JOIN %s ON %s.jnext = %s.jprev", tableName(i+1), tableName(i), tableName(i+1))
	}
	return q
}

// templateSpec is one fixed query shape of a workload: a chain sub-expression
// and the columns that get a range predicate each.
type templateSpec struct {
	from, to int
	cols     []string // "T2.a"
}

// The five query shapes of cmd/sitload, plus the 4-way chain scan_hot adds.
var (
	tmplJ12a   = templateSpec{0, 1, []string{"T2.a"}}
	tmplJ12ab  = templateSpec{0, 1, []string{"T2.a", "T1.b"}}
	tmplJ23a   = templateSpec{1, 2, []string{"T3.a"}}
	tmplJ123a  = templateSpec{0, 2, []string{"T3.a"}}
	tmplJ123aa = templateSpec{0, 2, []string{"T3.a", "T2.a"}}
	tmplJ34a   = templateSpec{2, 3, []string{"T4.a"}}
	tmplJ1234a = templateSpec{0, 3, []string{"T4.a"}}

	sitloadTemplates = []templateSpec{tmplJ12a, tmplJ12ab, tmplJ23a, tmplJ123a, tmplJ123aa}
)

// tierFloor is the share of in-process requests one serving tier must answer
// for the workload to count as doing the work it was designed for.
type tierFloor struct {
	tier  sits.Tier
	share float64
}

// workload describes one benchmark workload: the database, how its SITs are
// created, and the traffic its serving phases carry.
type workload struct {
	name string
	why  string

	// Database.
	rows     [numTables]int
	domain   int     // join-attribute domain
	joinZ    float64 // 0 = uniform join attributes
	segments bool    // stored as SEG1 segments (else CSV, loaded in memory)

	// Creation.
	method     sits.Method
	advise     []templateSpec // query templates the advisor derives the SIT set from
	budgetFrac float64        // governor budget as a share of the largest table's bytes (0 = unlimited)
	direct     bool           // Build each SIT directly instead of executing the schedule

	// Serving.
	templates   []templateSpec
	quantumDiv  int64   // constants quantized to domain/quantumDiv (0 = unquantized)
	shapeShare  float64 // share of requests drawn uniformly from the shape population
	refresh     bool    // every in-process window rebuilds the fixture and runs one append+Refresh cycle
	floor       tierFloor
	refreshGrow float64 // rows appended per cycle, as a share of the current rows
}

// fullWorkloads are the four workloads at benchmark scale. Row counts are
// sized so a run (set-up x5, creation passes, both serving phases, checks)
// ends inside the driver's per-run allowance on a 2-core box.
func fullWorkloads() []workload {
	return []workload{
		{
			name: "scan_hot",
			why:  "big uniform segment tables, SweepFull via shared scans: create is decode+scan+probe+MaxDiff; serve is >=99% result-hit, so key computation and HTTP dominate",
			rows: [numTables]int{600_000, 480_000, 360_000, 300_000}, domain: 60_000, segments: true,
			method: sits.SweepFull, advise: append(append([]templateSpec{}, sitloadTemplates...), tmplJ1234a),
			templates: sitloadTemplates, quantumDiv: 8,
			floor: tierFloor{sits.TierResult, 0.99},
		},
		{
			name: "sample_plans",
			why:  "tiny zipfian (z=1) CSV tables with huge join mass, Sweep 10% sampling: create is reservoir work, scan idle; serve is >=95% plan-hit (fresh constants)",
			rows: [numTables]int{8000, 6400, 4800, 4000}, domain: 2000, joinZ: 1,
			method: sits.Sweep, advise: sitloadTemplates,
			templates: sitloadTemplates,
			floor:     tierFloor{sits.TierPlan, 0.95},
		},
		{
			name: "spill_cold",
			why:  "Materialize under a quarter-table memory budget: the only create that runs grace join, external sort and SRN2 spill; serve is >=80% cold over 8192 shapes",
			rows: [numTables]int{200_000, 160_000, 120_000, 100_000}, domain: 50_000, segments: true,
			method: sits.Materialize, advise: []templateSpec{tmplJ12a, tmplJ23a, tmplJ123a},
			budgetFrac: 0.25, direct: true,
			shapeShare: 1,
			floor:      tierFloor{sits.TierCold, 0.80},
		},
		{
			name: "refresh_mixed",
			why:  "SweepExact (B+tree oracles) on in-memory CSV tables; serve mixes 90% templates with 10% cold shapes while each window appends 25% rows to a fresh fixture and rebuilds under the builder lock",
			rows: [numTables]int{80_000, 64_000, 48_000, 40_000}, domain: 10_000,
			// The SIT set must touch every table: a refresh only invalidates the
			// builder's base histograms of tables some stale SIT covers.
			method: sits.SweepExact, advise: []templateSpec{tmplJ12a, tmplJ23a, tmplJ123a, tmplJ34a},
			templates: sitloadTemplates, shapeShare: 0.10,
			refresh: true, refreshGrow: 0.25,
			floor: tierFloor{sits.TierPlan, 0.85},
		},
	}
}

// smokeWorkloads are the same four workloads with tiny tables, for the test
// that drives the whole lifecycle (daemon included) in a few seconds.
func smokeWorkloads() []workload {
	ws := fullWorkloads()
	for i := range ws {
		w := &ws[i]
		if w.joinZ > 0 {
			w.rows = [numTables]int{1500, 1200, 900, 750}
			w.domain = 500
			continue
		}
		w.rows = [numTables]int{20_000, 16_000, 12_000, 10_000}
		w.domain = 5000
	}
	return ws
}

func findWorkload(ws []workload, name string) (workload, bool) {
	for _, w := range ws {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// payloadDomain is the domain of the wide payload column b.
func (w workload) payloadDomain() int { return 5 * w.domain }

// narrowDomain is the domain of the narrow payload column c.
const narrowDomain = 1000

// corrNoise is the half-width of the noise correlating a with jprev.
func (w workload) corrNoise() int { return w.domain / 10 }

// columns lists table i's columns in storage order.
func columns(i int) []string {
	var cols []string
	if i > 0 {
		cols = append(cols, "jprev")
	}
	if i < numTables-1 {
		cols = append(cols, "jnext")
	}
	return append(cols, "a", "b", "c")
}

// columnDomain is the value domain predicate constants are drawn from.
func (w workload) columnDomain(attr string) int64 {
	switch attr {
	case "b":
		return int64(w.payloadDomain())
	case "c":
		return narrowDomain
	default:
		return int64(w.domain)
	}
}
