package main

import (
	"math"
	"slices"
	"sort"
)

// percentile returns the p-th percentile (nearest rank, 0 < p <= 100) of an
// ascending slice, or 0 for an empty one.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return float64(sorted[rank])
}

// median returns the middle value (mean of the two middle values for an even
// count), or 0 for no values. The input is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// mean returns the arithmetic mean, or 0 for no values.
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// windowStats is one measurement window of a serving phase: every request a
// client completed inside it, with its latency when it succeeded.
type windowStats struct {
	Attempted int     `json:"attempted"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	Seconds   float64 `json:"seconds"`
	P50us     float64 `json:"p50_us"`
	P99us     float64 `json:"p99_us"`
	Kops      float64 `json:"kops"`
}

// summarizeWindow folds the latencies (ns) of a window's successful requests
// into its percentiles and rate. latencies is sorted in place.
func summarizeWindow(latencies []uint32, failed int, seconds float64) windowStats {
	slices.Sort(latencies)
	w := windowStats{
		Attempted: len(latencies) + failed,
		Succeeded: len(latencies),
		Failed:    failed,
		Seconds:   seconds,
		P50us:     percentile(latencies, 50) / 1e3,
		P99us:     percentile(latencies, 99) / 1e3,
	}
	if seconds > 0 {
		w.Kops = float64(len(latencies)) / seconds / 1e3
	}
	return w
}

// perWindow extracts one statistic from every window.
func perWindow(ws []windowStats, stat func(windowStats) float64) []float64 {
	vals := make([]float64, len(ws))
	for i, w := range ws {
		vals[i] = stat(w)
	}
	return vals
}

// medianOfWindows is the median over the windows of one per-window statistic.
func medianOfWindows(ws []windowStats, stat func(windowStats) float64) float64 {
	return median(perWindow(ws, stat))
}

// sliceStats is one slice of a serving window: the successful requests that
// started inside it. Steady workloads cut every window into sliceLen slices;
// the refresh workload's in-process window is one slice, because its unit of
// work is a whole append+rebuild cycle.
type sliceStats struct {
	N     int     `json:"n"`
	P50us float64 `json:"p50_us"`
	P99us float64 `json:"p99_us"`
	Kops  float64 `json:"kops"`
}

// summarizeSlice folds the latencies (ns) of a slice's successful requests.
// latencies is sorted in place.
func summarizeSlice(latencies []uint32, seconds float64) sliceStats {
	slices.Sort(latencies)
	return sliceStats{
		N:     len(latencies),
		P50us: percentile(latencies, 50) / 1e3,
		P99us: percentile(latencies, 99) / 1e3,
		Kops:  float64(len(latencies)) / seconds / 1e3,
	}
}

// perSlice extracts one statistic from every slice.
func perSlice(ss []sliceStats, stat func(sliceStats) float64) []float64 {
	vals := make([]float64, len(ss))
	for i, s := range ss {
		vals[i] = stat(s)
	}
	return vals
}

// quietDecile reduces the repeated measurements of one end-to-end metric
// (creation passes' seconds, slices' p50s, slices' rates) to the reported
// value: the decile on the better side, by nearest rank — the first decile
// when lower is better, the ninth otherwise; of ten measurements or fewer,
// the best. Interference on a shared host only ever adds time, in bursts from
// tens of milliseconds to a second or so, so the best measurements estimate
// the undisturbed machine; over the sixty slices of a serving phase the
// decile rather than the best keeps a lucky slice from setting the number.
func quietDecile(vals []float64, lowerIsBetter bool) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	sort.Float64s(s)
	if !lowerIsBetter {
		slices.Reverse(s)
	}
	return s[max(0, int(math.Ceil(0.1*float64(len(s))))-1)]
}
