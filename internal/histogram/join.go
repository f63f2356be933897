package histogram

// This file implements the containment-assumption join estimation of
// Section 2.1: "the buckets of each histogram are aligned and a per-bucket
// estimation takes place, followed by an aggregation of all partial results".
// Within each aligned bucket pair, each of the min(dv1, dv2) distinct-value
// groups on the side with fewer groups joins with some group on the other
// side, giving an estimated output of f1*f2/max(dv1, dv2) tuples.

// joinPiece is one aligned value range shared by two histograms, with the
// frequency/distinct mass each side contributes to the range under the
// uniform-spread assumption.
type joinPiece struct {
	f1, d1 float64
	f2, d2 float64
}

// alignBuckets intersects the bucket boundaries of h1 and h2 and returns the
// aligned pieces. Value ranges covered by only one histogram produce no
// pieces: under the containment assumption they contribute no join matches.
func alignBuckets(h1, h2 *Histogram) []joinPiece {
	var pieces []joinPiece
	i, j := 0, 0
	for i < len(h1.Buckets) && j < len(h2.Buckets) {
		b1, b2 := h1.Buckets[i], h2.Buckets[j]
		lo, hi := b1.Lo, b1.Hi
		if b2.Lo > lo {
			lo = b2.Lo
		}
		if b2.Hi < hi {
			hi = b2.Hi
		}
		if lo <= hi {
			frac1 := (float64(hi-lo) + 1) / b1.Width()
			frac2 := (float64(hi-lo) + 1) / b2.Width()
			pieces = append(pieces, joinPiece{
				f1: b1.Freq * frac1, d1: b1.Distinct * frac1,
				f2: b2.Freq * frac2, d2: b2.Distinct * frac2,
			})
		}
		if b1.Hi <= b2.Hi {
			i++
		} else {
			j++
		}
	}
	return pieces
}

// JoinCardinality estimates |R join S| on an equality predicate whose two
// sides are described by h1 and h2, under the containment assumption.
func JoinCardinality(h1, h2 *Histogram) float64 {
	card := 0.0
	for _, p := range alignBuckets(h1, h2) {
		card += pieceJoinFreq(p)
	}
	return card
}

func pieceJoinFreq(p joinPiece) float64 {
	maxD := p.d1
	if p.d2 > maxD {
		maxD = p.d2
	}
	if maxD <= 0 {
		return 0
	}
	return p.f1 * p.f2 / maxD
}

// ContainmentMultiplicity is the histogram-based m-Oracle estimate of
// Section 3.1.1: the expected number of tuples of R (described by hR over the
// join attribute R.x) matching a probe value y drawn from S (described by hS
// over S.y). The paper derives, for aligned buckets,
//
//	m(y) = f_{R,y} / max(dv_{R,y}, dv_{S,y})
//
// i.e. f_{R,y}/dv_{R,y} when the probe side has no more distinct-value groups
// than the build side (containment guarantees a match), damped by
// dv_{R,y}/dv_{S,y} otherwise (the probability y falls in a matching group).
// The two buckets b_{R,y} and b_{S,y} generally cover different value ranges,
// so comparing raw distinct counts systematically overstates the probe side
// whenever its bucket is wider; group counts are therefore compared as
// densities (distinct values per unit of value range), which reduces exactly
// to the paper's formula for equal-width buckets and removes the bias for
// unaligned ones.
//
// The multiplicity is 0 when y falls outside hR (no matching tuples possible
// under containment) and f_{R,y}/dv_{R,y} when y falls outside hS (no
// competing groups on the probe side).
func ContainmentMultiplicity(hR, hS *Histogram, y int64) float64 {
	bR, ok := hR.Locate(y)
	if !ok || bR.Distinct <= 0 {
		return 0
	}
	m := bR.Freq / bR.Distinct
	if bS, ok := hS.Locate(y); ok && bS.Distinct > 0 {
		densR := bR.Distinct / bR.Width()
		densS := bS.Distinct / bS.Width()
		if densS > densR {
			m *= densR / densS
		}
	}
	return m
}

// ContainmentMultiplicitySorted is the batched m-Oracle probe: it fills
// out[i] = ContainmentMultiplicity(hR, hS, vals[i]) for an ascending vals
// slice. Because the probes are sorted, both histograms are walked with
// forward bucket cursors — each bucket list is traversed at most once per
// call instead of one binary search per probe — and runs of equal values
// reuse the previous answer. The arithmetic per probe is identical to the
// scalar ContainmentMultiplicity, so results are bit-identical.
func ContainmentMultiplicitySorted(hR, hS *Histogram, vals []int64, out []float64) {
	iR, iS := 0, 0
	for k, v := range vals {
		if k > 0 && v == vals[k-1] {
			out[k] = out[k-1]
			continue
		}
		for iR < len(hR.Buckets) && hR.Buckets[iR].Hi < v {
			iR++
		}
		if iR >= len(hR.Buckets) || !hR.Buckets[iR].Contains(v) || hR.Buckets[iR].Distinct <= 0 {
			out[k] = 0
			continue
		}
		bR := hR.Buckets[iR]
		m := bR.Freq / bR.Distinct
		for iS < len(hS.Buckets) && hS.Buckets[iS].Hi < v {
			iS++
		}
		if iS < len(hS.Buckets) && hS.Buckets[iS].Contains(v) && hS.Buckets[iS].Distinct > 0 {
			bS := hS.Buckets[iS]
			densR := bR.Distinct / bR.Width()
			densS := bS.Distinct / bS.Width()
			if densS > densR {
				m *= densR / densS
			}
		}
		out[k] = m
	}
}
