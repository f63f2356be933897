package histogram

import (
	"fmt"
	"math"
)

// FromPairsVOptimal builds a V-Optimal histogram: bucket boundaries minimize
// the total within-bucket variance of frequencies (Jagadish et al.'s dynamic
// program). V-Optimal histograms are the accuracy gold standard the MaxDiff
// family approximates cheaply; the repository uses them as an ablation
// baseline (see BenchmarkAblationHistogram and the accuracy tests).
//
// The dynamic program is O(m^2 * nb) over m distinct values, so this
// construction is only practical for domains up to a few thousand distinct
// values — exactly the regime of the paper's evaluation.
func FromPairsVOptimal(pairs []ValueFreq, nb int) (*Histogram, error) {
	if nb <= 0 {
		return nil, fmt.Errorf("histogram: bucket count %d must be positive", nb)
	}
	for i := range pairs {
		if pairs[i].Freq < 0 || math.IsNaN(pairs[i].Freq) || math.IsInf(pairs[i].Freq, 0) {
			return nil, fmt.Errorf("histogram: invalid frequency %v for value %d", pairs[i].Freq, pairs[i].Value)
		}
		if i > 0 && pairs[i].Value <= pairs[i-1].Value {
			return nil, fmt.Errorf("histogram: pairs not strictly sorted at index %d", i)
		}
	}
	m := len(pairs)
	if m == 0 {
		return &Histogram{}, nil
	}
	if nb >= m {
		return fromBreaks(pairs, identityBreaks(m)), nil
	}

	// Prefix sums of f and f^2 for O(1) SSE of any [i, j) segment.
	sum := make([]float64, m+1)
	sq := make([]float64, m+1)
	for i, p := range pairs {
		sum[i+1] = sum[i] + p.Freq
		sq[i+1] = sq[i] + p.Freq*p.Freq
	}
	sse := func(i, j int) float64 { // segment pairs[i:j], j > i
		n := float64(j - i)
		s := sum[j] - sum[i]
		return (sq[j] - sq[i]) - s*s/n
	}

	// dp[k][j] = minimal total SSE of splitting pairs[0:j] into k buckets.
	const inf = math.MaxFloat64
	dp := make([][]float64, nb+1)
	cut := make([][]int, nb+1)
	for k := range dp {
		dp[k] = make([]float64, m+1)
		cut[k] = make([]int, m+1)
		for j := range dp[k] {
			dp[k][j] = inf
		}
	}
	dp[0][0] = 0
	for k := 1; k <= nb; k++ {
		for j := k; j <= m; j++ {
			for i := k - 1; i < j; i++ {
				if dp[k-1][i] == inf {
					continue
				}
				if c := dp[k-1][i] + sse(i, j); c < dp[k][j] {
					dp[k][j] = c
					cut[k][j] = i
				}
			}
		}
	}
	// Trace back the break positions.
	breaks := make([]int, 0, nb)
	j := m
	for k := nb; k >= 1; k-- {
		i := cut[k][j]
		breaks = append(breaks, i)
		j = i
	}
	return fromBreaks(pairs, breaks), nil
}

func identityBreaks(m int) []int {
	breaks := make([]int, m)
	for i := range breaks {
		breaks[i] = i
	}
	return breaks
}
