package sits

// This file re-exports the statistics-service layer: the shared memory
// governor, the concurrent SIT catalog (Registry), and the estimate-serving
// cache (Service) that cmd/sitserve wires behind HTTP. The one-shot journey
// (NewBuilder -> Build -> Estimator) stays available for batch use; these
// types are its long-lived concurrent counterpart.

import (
	"github.com/sitstats/sits/internal/data"
	"github.com/sitstats/sits/internal/mem"
	"github.com/sitstats/sits/internal/serve"
	"github.com/sitstats/sits/internal/sit"
)

// --- Catalog loading ---

// LoadCatalog loads a catalog from a directory of <name>.csv files (csvDir)
// or <name>.seg segment files (segDir; tables stream off disk block by
// block). Exactly one directory must be non-empty; a nil table list
// discovers every table file in it. This is the shared -csv/-segments flag
// handling of the CLIs.
func LoadCatalog(csvDir, segDir string, tables []string) (*Catalog, error) {
	return data.LoadCatalog(csvDir, segDir, tables)
}

// --- Shared memory governance ---

// Governor is the engine's memory ledger: operators reserve against it and
// spill when denied. Its accounting is safe for concurrent use, so one
// governor can budget every builder, registry, and request of a process;
// inject it through Config.Governor.
type Governor = mem.Governor

// NewGovernor creates a governor with a byte budget (<= 0 = unlimited).
func NewGovernor(budget int64) *Governor { return mem.NewGovernor(budget) }

// --- Concurrent SIT catalog ---

// Registry is the concurrent SIT catalog: lock-free epoch-swapped reads,
// single-flighted builds, background staleness refresh. See sit.Registry.
type Registry = sit.Registry

// RegistryStats is a point-in-time view of a registry for monitoring.
type RegistryStats = sit.RegistryStats

// NewRegistry creates a concurrent SIT catalog over the data catalog.
func NewRegistry(cat *Catalog, cfg Config) (*Registry, error) {
	return sit.NewRegistry(cat, cfg)
}

// --- Estimate serving ---

// Service answers SPJ estimation requests from a registry's served SIT set
// through three tiers (result cache, plan cache, cold estimation) whose
// entries are identified by the request and one snapshot pin,
// Registry.AppendPin; see serve.Service.
type Service = serve.Service

// ServeConfig parameterizes the serving layer: the overload shed threshold,
// which sitserve fixes at 64. Both caches are always on, at fixed bounds.
type ServeConfig = serve.Config

// ServeStats is a point-in-time view of the serving layer.
type ServeStats = serve.Stats

// Tier identifies which serving tier answered an estimation request.
type Tier = serve.Tier

// The serving tiers, cheapest first.
const (
	TierCold   = serve.TierCold
	TierPlan   = serve.TierPlan
	TierResult = serve.TierResult
)

// ErrOverloaded is returned by Service.Estimate when a cold request is shed
// under budget pressure instead of queueing on the builder.
var ErrOverloaded = serve.ErrOverloaded

// NewService creates a serving layer over the registry.
func NewService(reg *Registry, cfg ServeConfig) (*Service, error) {
	return serve.NewService(reg, cfg)
}
