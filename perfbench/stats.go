package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many raw samples must lie beyond a named percentile for
// it to be reported (choosing-metrics §1): with fewer, the percentile is the
// run's single slowest call, not a property of the system.
const minBeyond = 10

// samples is a list of raw observations of one quantity. Every percentile
// the benchmark reports is computed from these exactly, never from
// histogram buckets.
type samples []float64

func (s samples) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// median is the midpoint of the sorted samples (mean of the two middle ones
// for even counts); NaN when empty.
func (s samples) median() float64 {
	c := s.sorted()
	n := len(c)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) and the number
// of samples strictly beyond its rank. It fails when fewer than minBeyond
// samples lie beyond it.
func (s samples) percentile(q float64) (value float64, beyond int, err error) {
	c := s.sorted()
	n := len(c)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, n - rank, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d",
			100*q, minBeyond, max(n-rank, 0), n)
	}
	return c[rank-1], n - rank, nil
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
