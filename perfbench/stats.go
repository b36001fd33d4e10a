package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples collects one operation kind's latencies in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// percentile returns the p-th percentile (0 < p < 100) by linear
// interpolation between the closest ranks; NaN when s is empty.
func (s samples) percentile(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	pos := p / 100 * float64(len(v)-1)
	lo := int(math.Floor(pos))
	if lo >= len(v)-1 {
		return v[len(v)-1]
	}
	frac := pos - float64(lo)
	return v[lo] + frac*(v[lo+1]-v[lo])
}

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) max() float64 {
	m := math.NaN()
	for _, v := range s {
		if math.IsNaN(m) || v > m {
			m = v
		}
	}
	return m
}

// tailLadder is the set of percentiles a tail metric may fall back to.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile, at most want, that has at
// least ten samples beyond it; ok is false when even the median has fewer.
// A tail read from fewer samples is a single outlier, not a percentile.
func tailPercentile(n int, want float64) (p float64, ok bool) {
	for _, p := range tailLadder {
		// n·(100−p)/100 ≥ 10, with slack for the binary fractions of p.
		if p <= want && float64(n)*(100-p) >= 1000-1e-6 {
			return p, true
		}
	}
	return 0, false
}

// tail returns the want-th percentile of s, falling back down the ladder
// when the sample count cannot support it; note says which percentile was
// used when it is not want.
func (s samples) tail(want float64) (v float64, note string) {
	p, ok := tailPercentile(len(s), want)
	if !ok {
		return math.NaN(), fmt.Sprintf("only %d samples: no percentile has ten beyond it", len(s))
	}
	if p != want {
		note = fmt.Sprintf("p%g: %d samples support no higher percentile", p, len(s))
	}
	return s.percentile(p), note
}
