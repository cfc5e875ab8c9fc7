package main

import (
	"math"
	"sort"

	"github.com/eosdb/eos/internal/lob"
)

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i])
}

// median of float samples (0 for none).
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const (
	nsPerUs = 1e3
	nsPerMs = 1e6
	mb      = 1 << 20
)

// addLOB adds the lob counters the benchmark reports from s to dst.
func addLOB(dst *lob.Stats, s lob.Stats) {
	dst.SegmentsAllocated += s.SegmentsAllocated
	dst.SegmentsFreed += s.SegmentsFreed
	dst.BytesReshuffled += s.BytesReshuffled
	dst.PagesReshuffled += s.PagesReshuffled
	dst.NodeSplits += s.NodeSplits
	dst.NodeMerges += s.NodeMerges
	dst.ShadowedIndexPages += s.ShadowedIndexPages
}
