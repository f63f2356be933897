package main

import (
	"testing"

	"github.com/sitstats/sits/internal/cliopt"
)

// opts is the command line "-experiment e -queries 10 -buckets b -instances i
// -numsits 4 -lensits 3 -tables n -memory m -hybrid-ms h -opt-cap 0 -seed s"
// with the other engine flags at their defaults.
func opts(exp, buckets string, instances, tables int, memory float64, hybridMS int, seed int64) options {
	return options{exp: exp, queries: 10, buckets: buckets, instances: instances, numSITs: 4, lenSITs: 3,
		tables: tables, memory: memory, hybridMS: hybridMS, eng: &cliopt.Engine{MemBudget: "0", Seed: seed}}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("20,50,100")
	if err != nil || len(got) != 3 || got[0] != 20 || got[2] != 100 {
		t.Errorf("parseInts = %v, %v", got, err)
	}
	if _, err := parseInts("20,x"); err == nil {
		t.Error("bad list: want error")
	}
	if _, err := parseInts("0"); err == nil {
		t.Error("non-positive: want error")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(opts("bogus", "", 1, 5, 1e6, 10, 1)); err == nil {
		t.Error("unknown experiment: want error")
	}
}

func TestRunBadBuckets(t *testing.T) {
	if err := run(opts("fig7", "1,x", 1, 5, 1e6, 10, 1)); err == nil {
		t.Error("bad buckets list: want error")
	}
}

// TestRunTinySweeps exercises the experiment plumbing end to end with tiny
// parameters (few queries, few instances, small instances).
func TestRunTinySweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full figure plumbing")
	}
	if err := run(opts("fig9", "", 2, 6, 100000, 50, 7)); err != nil {
		t.Fatal(err)
	}
}
