package main

import (
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // unsorted on purpose
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64
	}{
		{1, 0.5, 1},
		{10, 0.5, 5},
		{100, 0.9, 90},
		{101, 0.9, 91},
		{1000, 0.99, 990},
	} {
		got, err := percentile(seq(c.n), c.q)
		if err != nil {
			t.Errorf("p%g of %d: %v", c.q*100, c.n, err)
		}
		if got != c.want {
			t.Errorf("p%g of 1..%d = %g, want %g", c.q*100, c.n, got, c.want)
		}
	}
}

// A percentile is reported only with at least minTail samples beyond
// it: p90 needs 100 samples, p99 needs 1000.
func TestPercentileTailRule(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{99, 0.9, false},
		{100, 0.9, true},
		{999, 0.99, false},
		{1000, 0.99, true},
		{3, 0.5, true}, // the median is exempt
	} {
		v, err := percentile(seq(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err = %v, want ok=%t", c.q*100, c.n, err, c.ok)
		}
		if beyond := countAbove(seq(c.n), v); c.ok && c.q > 0.5 && beyond < minTail {
			t.Errorf("p%g of %d samples: %d beyond, want >= %d", c.q*100, c.n, beyond, minTail)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples: want an error")
	}
}

func countAbove(s []float64, v float64) int {
	n := 0
	for _, x := range s {
		if x > v {
			n++
		}
	}
	return n
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %g, want 0", got)
	}
}
