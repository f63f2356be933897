package sits

import (
	"io"

	"github.com/sitstats/sits/internal/sit"
)

// WriteHistogram serializes a histogram as JSON.
func WriteHistogram(h *Histogram, w io.Writer) error { return h.Write(w) }

// SaveSITs serializes built SITs as JSON for reuse across runs.
func SaveSITs(w io.Writer, sits []*SIT) error { return sit.SaveSITs(w, sits) }

// LoadSITs restores SITs written by SaveSITs; adopt them into a Builder with
// Builder.AdoptCached or register them with an Estimator.
func LoadSITs(r io.Reader) ([]*SIT, error) { return sit.LoadSITs(r) }

// Staleness describes how far a SIT has drifted from its base tables.
type Staleness = sit.Staleness
