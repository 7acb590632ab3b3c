package main

import (
	"testing"
	"time"
)

// TestPercentileNearestRank checks the nearest-rank rule on 1..n, where
// the q-quantile is exactly ceil(q*n).
func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n          int
		q          float64
		want       int64
		wantBeyond int
	}{
		{1, 0.5, 1, 0},
		{1, 0.99, 1, 0},
		{100, 0.5, 50, 50},
		{100, 0.99, 99, 1},
		{101, 0.5, 51, 50},
		{1000, 0.99, 990, 10},
		{1000, 1, 1000, 0},
	} {
		s := make([]int64, tc.n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		got, beyond := percentile(s, tc.q)
		if got != tc.want || beyond != tc.wantBeyond {
			t.Errorf("n=%d q=%v: got %d (%d beyond), want %d (%d beyond)", tc.n, tc.q, got, beyond, tc.want, tc.wantBeyond)
		}
	}
	if v, beyond := percentile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("empty: got %d, %d", v, beyond)
	}
}

// TestNoOpHarnessAllocates checks that the closed loop itself allocates
// nothing per op, so allocs_per_op is the program's alone.
func TestNoOpHarnessAllocates(t *testing.T) {
	noop := caller{op: func() error { return nil }}
	cs := []caller{noop, noop}
	rate := warmUp(cs, 50*time.Millisecond, 1000)
	p := runPhase(cs, 200*time.Millisecond, rate)
	if p.attempted < 1000 {
		t.Fatalf("only %d no-op ops ran", p.attempted)
	}
	if per := float64(p.mallocs) / float64(p.attempted); per > 0.001 {
		t.Errorf("no-op op allocates %.4f per op (%d over %d ops)", per, p.mallocs, p.attempted)
	}
	if p.failed != 0 {
		t.Errorf("%d no-op ops failed", p.failed)
	}
	n := 0
	for _, w := range p.windows {
		n += len(w.lat)
		for i := 1; i < len(w.lat); i++ {
			if w.lat[i-1] > w.lat[i] {
				t.Fatalf("window latencies unsorted")
			}
		}
	}
	if n == 0 || n != p.samples {
		t.Errorf("windows hold %d samples, phase recorded %d", n, p.samples)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd: got %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: got %v", got)
	}
}
