package main

import (
	"math"
	"testing"
	"time"
)

// One slice in which everything is 100x slower must move neither the
// smoothed latency nor the smoothed throughput; a plain percentile
// over the whole window would be dragged by it.
func TestSliceStatsIgnoresOneBadSlice(t *testing.T) {
	window := 10 * time.Second
	var samples []sample
	for i := 0; i < 10; i++ {
		n, lat := 100, 100*time.Microsecond
		if i == 4 {
			n, lat = 10, 10*time.Millisecond
		}
		for k := 0; k < n; k++ {
			at := time.Duration(i)*time.Second + time.Duration(k)*time.Second/time.Duration(n)
			samples = append(samples, sample{at: at, lat: lat})
		}
	}
	// Warm-up and stragglers are outside the window.
	samples = append(samples, sample{at: -time.Second, lat: time.Hour}, sample{at: window, lat: time.Hour})
	ws := sliceStats(samples, window, 10)
	if ws.qps != 100 || ws.p50us != 100 || ws.p99us != 100 {
		t.Errorf("slice medians = %+v, want qps 100, p50 100us, p99 100us", ws)
	}
	if ws.inWindow != 910 {
		t.Errorf("inWindow = %d, want 910", ws.inWindow)
	}
	if ws.p999us != 10000 {
		t.Errorf("whole-window p999 = %v, want the slow slice's 10000us", ws.p999us)
	}
}

func TestMidmean(t *testing.T) {
	// 10 values: the two lowest and the two highest are dropped.
	if got := midmean([]float64{1000, 5, 6, 7, 8, 9, 10, -1000, 4, 11}); got != 7.5 {
		t.Errorf("midmean = %v, want 7.5", got)
	}
	if got := midmean([]float64{3}); got != 3 {
		t.Errorf("midmean of one value = %v", got)
	}
	if got := midmean(nil); got != 0 {
		t.Errorf("midmean of nothing = %v", got)
	}
}

func TestSliceStatsEmpty(t *testing.T) {
	if ws := sliceStats(nil, time.Second, 10); ws != (windowStats{}) {
		t.Errorf("no samples gave %+v", ws)
	}
}

func TestQerrSummary(t *testing.T) {
	var qs []float64
	for i := 1; i <= 100; i++ {
		qs = append(qs, float64(i))
	}
	// Interpolated between order statistics, as internal/stats does.
	if p50, p95 := qerrSummary(qs); p50 != 50.5 || math.Abs(p95-95.05) > 1e-9 {
		t.Errorf("qerrSummary = %v, %v; want 50.5, 95.05", p50, p95)
	}
}
