package experiments

import (
	"github.com/sitstats/sits/internal/exec"
)

// parallelFor runs fn(i) for every i in [0, n) as one exec.ForkJoin at the
// Parallelism knob's width (0 = GOMAXPROCS, 1 = serial, n = at most n
// concurrent tasks) and returns the first error by task index, so the
// reported error is deterministic. Tasks must be independent and write their
// results to distinct locations (typically index i of a pre-sized slice,
// which keeps the assembled output order deterministic regardless of
// scheduling).
func parallelFor(n, parallelism int, fn func(i int) error) error {
	errs := make([]error, n)
	exec.ForkJoin(n, parallelism, func(i int) {
		errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
