package sit

import (
	"fmt"

	"github.com/sitstats/sits/internal/exec"
	"github.com/sitstats/sits/internal/histogram"
	"github.com/sitstats/sits/internal/query"
)

// Build creates a SIT for the spec with the given method. Base-table specs
// return the plain base histogram regardless of method. Results (including
// every intermediate SIT of multi-join expressions) are cached per method, so
// subsequent builds that share sub-expressions reuse earlier scans.
func (b *Builder) Build(spec query.SITSpec, m Method) (*SIT, error) {
	if cached, ok := b.Cached(spec, m); ok {
		return cached, nil
	}
	s, err := b.build(spec, m, b.cfg.Buckets)
	if err != nil {
		return nil, err
	}
	b.sits[cacheKey(spec, m)] = s
	return s, nil
}

// BuildGroup creates several SITs whose join-trees are rooted at the same
// table, sharing a single sequential scan over that table (the scan sharing
// of Section 4, Example 3). Intermediate SITs required by the group are built
// (or fetched from cache) first; they may scan other tables. Base-table specs
// are not allowed in a group.
func (b *Builder) BuildGroup(specs []query.SITSpec, m Method) ([]*SIT, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	root := specs[0].Table
	for _, s := range specs {
		if s.IsBase() {
			return nil, fmt.Errorf("sit: BuildGroup got base-table spec %s", s.String())
		}
		if s.Table != root {
			return nil, fmt.Errorf("sit: BuildGroup specs must share the root table: %q vs %q", root, s.Table)
		}
	}
	if m == HistSIT || m == Materialize {
		// These methods do not scan, so there is nothing to share.
		out := make([]*SIT, len(specs))
		for i, s := range specs {
			sit, err := b.Build(s, m)
			if err != nil {
				return nil, err
			}
			out[i] = sit
		}
		return out, nil
	}
	out := make([]*SIT, len(specs))
	var jobs []*scanJob
	var jobSpecs []query.SITSpec
	for i, s := range specs {
		if cached, ok := b.Cached(s, m); ok {
			out[i] = cached
			continue
		}
		job, err := b.prepareJob(s, m, b.cfg.Buckets)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job)
		jobSpecs = append(jobSpecs, s)
	}
	if len(jobs) > 0 {
		t, err := b.cat.Table(root)
		if err != nil {
			return nil, err
		}
		if _, err := runSharedScan(t, jobs, b.cfg.Parallelism, b.gov); err != nil {
			return nil, err
		}
	}
	ji := 0
	for i := range specs {
		if out[i] != nil {
			continue
		}
		s, err := b.finishJob(jobSpecs[ji], m, jobs[ji], b.cfg.Buckets)
		if err != nil {
			return nil, err
		}
		b.sits[cacheKey(specs[i], m)] = s
		out[i] = s
		ji++
	}
	return out, nil
}

// build dispatches a single (uncached) SIT construction. nb is the bucket
// budget for this SIT; intermediate SITs of exact methods use an unbounded
// budget so exactness is preserved through the recursion.
func (b *Builder) build(spec query.SITSpec, m Method, nb int) (*SIT, error) {
	if spec.IsBase() {
		h, err := b.baseHistogramN(spec.Table, spec.Attr, nb)
		if err != nil {
			return nil, err
		}
		return b.stamp(&SIT{Spec: spec, Hist: h, Method: m, EstimatedCard: h.TotalFreq()})
	}
	if !spec.Expr.IsAcyclic() {
		return nil, fmt.Errorf("sit: generating query %q is cyclic; only acyclic-join queries are supported", spec.Expr.String())
	}
	switch m {
	case HistSIT:
		return b.histSIT(spec)
	case Materialize:
		return b.materializeSIT(spec, nb)
	case Sweep, SweepIndex, SweepFull, SweepExact:
		job, err := b.prepareJob(spec, m, nb)
		if err != nil {
			return nil, err
		}
		t, err := b.cat.Table(spec.Table)
		if err != nil {
			return nil, err
		}
		if _, err := runSharedScan(t, []*scanJob{job}, b.cfg.Parallelism, b.gov); err != nil {
			return nil, err
		}
		return b.finishJob(spec, m, job, nb)
	default:
		return nil, fmt.Errorf("sit: unknown creation method %v", m)
	}
}

// prepareJob builds the scan job for the root of the spec's join-tree:
// it recursively ensures every child's intermediate SIT (or base histogram /
// index) exists and wires up the per-predicate oracles and the stream
// consumer. The caller performs the actual scan (possibly shared).
func (b *Builder) prepareJob(spec query.SITSpec, m Method, nb int) (*scanJob, error) {
	jt, err := spec.Expr.JoinTree(spec.Table)
	if err != nil {
		return nil, err
	}
	job := &scanJob{targetAttr: spec.Attr}
	for _, edge := range jt.Children {
		for _, pred := range edge.Preds {
			o, err := b.childOracle(jt.Table, edge.Child, pred, m)
			if err != nil {
				return nil, err
			}
			job.preds = append(job.preds, jobPred{attr: pred.ParentAttr, o: o})
		}
	}
	job.cons, err = b.newConsumer(spec.Table, m)
	if err != nil {
		return nil, err
	}
	return job, nil
}

// finishJob converts a completed scan job into a SIT.
func (b *Builder) finishJob(spec query.SITSpec, m Method, job *scanJob, nb int) (*SIT, error) {
	h, mass, err := job.cons.result(nb, b.cfg.HistMethod)
	if err != nil {
		return nil, err
	}
	return b.stamp(&SIT{Spec: spec, Hist: h, Method: m, EstimatedCard: mass})
}

// stamp records the base-table sizes the SIT was built against.
func (b *Builder) stamp(s *SIT) (*SIT, error) {
	snap, err := b.snapshotFor(s.Spec.Expr.Tables())
	if err != nil {
		return nil, err
	}
	s.builtAgainst = snap
	return s, nil
}

// childOracle returns the m-Oracle answering multiplicities of the scanned
// table's pred.ParentAttr values in the child subtree's result.
func (b *Builder) childOracle(parentTable string, child *query.JoinTree, pred query.AttrPair, m Method) (oracle, error) {
	exactMethod := m == SweepIndex || m == SweepExact
	if child.IsLeaf() && exactMethod {
		// The joined side is a base table: exact index lookups (SweepIndex).
		idx, err := b.Index(child.Table, pred.ChildAttr)
		if err != nil {
			return nil, err
		}
		return indexOracle{idx: idx}, nil
	}
	// Histogram oracle: child side histogram is either a base histogram
	// (leaf) or the child subtree's intermediate SIT, built recursively.
	childNB := b.cfg.Buckets
	if m == SweepExact {
		childNB = exactBuckets
	}
	var childHist *histogram.Histogram
	if child.IsLeaf() {
		h, err := b.baseHistogramN(child.Table, pred.ChildAttr, childNB)
		if err != nil {
			return nil, err
		}
		childHist = h
	} else {
		childExpr, err := child.SubtreeExpr()
		if err != nil {
			return nil, err
		}
		childSpec, err := query.NewSITSpec(child.Table, pred.ChildAttr, childExpr)
		if err != nil {
			return nil, err
		}
		key := cacheKey(childSpec, m)
		cached, ok := b.sits[key]
		if !ok {
			cached, err = b.build(childSpec, m, childNB)
			if err != nil {
				return nil, err
			}
			b.sits[key] = cached
		}
		childHist = cached.Hist
	}
	// The parent-side histogram participates through max(dv_child, dv_parent)
	// in the containment formula; SweepExact keeps it exact too so the oracle
	// degenerates to the exact per-value count of the child result.
	parentHist, err := b.baseHistogramN(parentTable, pred.ParentAttr, childNB)
	if err != nil {
		return nil, err
	}
	return histOracle{child: childHist, parent: parentHist}, nil
}

// newConsumer creates the stream consumer matching the method: reservoir
// sampling for Sweep/SweepIndex, exact aggregation for SweepFull/SweepExact.
func (b *Builder) newConsumer(table string, m Method) (consumer, error) {
	switch m {
	case SweepFull, SweepExact:
		return newFullConsumer(), nil
	case Sweep, SweepIndex:
		k, err := b.SampleSize(table)
		if err != nil {
			return nil, err
		}
		return newSampledConsumer(k, b.nextSeed())
	default:
		return nil, fmt.Errorf("sit: method %v does not stream", m)
	}
}

// materializeSIT executes the generating query with the executor and builds
// the histogram over the actual attribute values: the ground-truth SIT.
func (b *Builder) materializeSIT(spec query.SITSpec, nb int) (*SIT, error) {
	vals, err := exec.AttrValuesOpts(b.cat, spec.Expr, spec.Table, spec.Attr, exec.Options{Gov: b.gov})
	if err != nil {
		return nil, err
	}
	h, err := histogram.FromValues(vals, nb, b.cfg.HistMethod)
	if err != nil {
		return nil, err
	}
	return b.stamp(&SIT{Spec: spec, Hist: h, Method: Materialize, EstimatedCard: float64(len(vals))})
}

// histSIT implements the traditional optimizer baseline of Section 2.1: the
// SIT's histogram is obtained purely from base-table histograms by estimating
// the join cardinality bottom-up with the containment assumption and scaling
// the target attribute's base histogram to it (independence assumption). No
// data is accessed.
func (b *Builder) histSIT(spec query.SITSpec) (*SIT, error) {
	jt, err := spec.Expr.JoinTree(spec.Table)
	if err != nil {
		return nil, err
	}
	card, hist, err := b.propagate(jt, spec.Attr)
	if err != nil {
		return nil, err
	}
	return b.stamp(&SIT{Spec: spec, Hist: hist, Method: HistSIT, EstimatedCard: card})
}

// EstimateJoinCard estimates the generating expression's result cardinality
// purely from base-table histograms (the Hist-SIT propagation machinery of
// Section 2.1), without touching data or building a SIT. It is the fallback
// the cardinality-estimation wrapper uses when no SIT matches.
func (b *Builder) EstimateJoinCard(expr *query.Expr) (float64, error) {
	root := expr.Tables()[0]
	t, err := b.cat.Table(root)
	if err != nil {
		return 0, err
	}
	if expr.NumTables() == 1 {
		return float64(t.NumRows()), nil
	}
	jt, err := expr.JoinTree(root)
	if err != nil {
		return 0, err
	}
	// Any attribute of the root works: propagation scales it but the
	// cardinality estimate does not depend on which one is carried along.
	card, _, err := b.propagate(jt, t.ColumnNames()[0])
	return card, err
}

// propagate estimates the cardinality of the subtree's join result and the
// propagated histogram over node.attr in that result. The first predicate of
// each edge joins the child relation in (containment assumption, with the
// parent side scaled to the running cardinality under independence); any
// additional predicates between the same table pair are treated as
// independent filters whose selectivity multiplies the running cardinality.
func (b *Builder) propagate(node *query.JoinTree, attr string) (float64, *histogram.Histogram, error) {
	attrHist, err := b.BaseHistogram(node.Table, attr)
	if err != nil {
		return 0, nil, err
	}
	card := attrHist.TotalFreq() // |node.Table|
	for _, edge := range node.Children {
		for i, pred := range edge.Preds {
			parentHist, err := b.BaseHistogram(node.Table, pred.ParentAttr)
			if err != nil {
				return 0, nil, err
			}
			var childHist *histogram.Histogram
			if edge.Child.IsLeaf() {
				childHist, err = b.BaseHistogram(edge.Child.Table, pred.ChildAttr)
				if err != nil {
					return 0, nil, err
				}
			} else {
				_, childHist, err = b.propagate(edge.Child, pred.ChildAttr)
				if err != nil {
					return 0, nil, err
				}
			}
			if i == 0 {
				card = histogram.JoinCardinality(parentHist.ScaleTo(card), childHist)
				continue
			}
			denom := parentHist.TotalFreq() * childHist.TotalFreq()
			if denom > 0 {
				card *= histogram.JoinCardinality(parentHist, childHist) / denom
			}
		}
	}
	return card, attrHist.ScaleTo(card), nil
}
