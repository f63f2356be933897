// Package cliopt is the engine flag block shared by sitcreate, estimate,
// sitbench and sitserve: one registration, one place that turns the flags
// into a sits.Config and a catalog.
package cliopt

import (
	"flag"

	"github.com/sitstats/sits"
)

// Engine holds the values of the shared flags.
type Engine struct {
	Parallel  int
	MemBudget string
	Seed      int64
	CSV       string
	Segments  string
}

// Register declares -parallel, -mem-budget and -seed on fs; seed is
// the binary's default seed.
func Register(fs *flag.FlagSet, seed int64) *Engine {
	e := &Engine{}
	fs.IntVar(&e.Parallel, "parallel", 0, "fork-join width of each shared scan (0 = all CPUs, 1 = serial; output is bit-identical at every width)")
	fs.StringVar(&e.MemBudget, "mem-budget", "0", "executor memory budget, e.g. 512M or 2G (0 = unlimited); hash joins spill beyond it")
	fs.Int64Var(&e.Seed, "seed", seed, "random seed")
	return e
}

// RegisterData declares -csv and -segments, for the binaries that load a
// database instead of generating one per experiment.
func (e *Engine) RegisterData(fs *flag.FlagSet) {
	fs.StringVar(&e.CSV, "csv", "", "directory of <table>.csv files; default: generated chain database")
	fs.StringVar(&e.Segments, "segments", "", "directory of <table>.seg segment files; tables stream off disk block by block instead of loading into memory")
}

// Config returns sits.DefaultConfig with the engine flags applied.
func (e *Engine) Config() (sits.Config, error) {
	cfg := sits.DefaultConfig()
	cfg.Seed = e.Seed
	cfg.Parallelism = e.Parallel
	var err error
	cfg.MemBudget, err = sits.ParseMemBudget(e.MemBudget)
	return cfg, err
}

// Catalog loads the named tables (nil = every table file) from -csv or
// -segments, or generates the synthetic chain database when neither is given.
func (e *Engine) Catalog(tables []string) (*sits.Catalog, error) {
	if e.CSV == "" && e.Segments == "" {
		return sits.GenerateChainDB(sits.DefaultChainConfig())
	}
	return sits.LoadCatalog(e.CSV, e.Segments, tables)
}
