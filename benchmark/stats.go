package main

import (
	"sort"
	"time"

	"repro/internal/stats"
)

// sample is one completed request: when it completed relative to the start
// of the measured window (negative during warm-up) and how long the client
// waited for it.
type sample struct {
	at  time.Duration
	lat time.Duration
}

// midmean is the mean of the middle half of xs: the lowest and the highest
// quarter (rounded down) are dropped. Like the median it ignores a few wild
// values, but it averages over the rest instead of picking one of them.
func midmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t / float64(len(s))
}

// windowStats are the timings of one measured window. Each is computed per
// slice of the window and reported as the midmean over the slices, so a
// noisy-neighbour burst moves a slice or two and not the result.
type windowStats struct {
	qps      float64
	p50us    float64
	p99us    float64
	p999us   float64 // over the whole window, not slice-smoothed
	inWindow int     // samples that completed inside the window
}

// sliceStats cuts [0, window) into n equal slices by completion time and
// summarises the samples. Samples outside the window (warm-up, stragglers)
// are ignored; an empty slice counts as 0 qps and contributes no latency.
func sliceStats(samples []sample, window time.Duration, n int) windowStats {
	if n <= 0 || window <= 0 {
		return windowStats{}
	}
	sliceLen := window / time.Duration(n)
	per := make([][]float64, n)
	var all []float64
	for _, s := range samples {
		if s.at < 0 || s.at >= sliceLen*time.Duration(n) {
			continue
		}
		us := float64(s.lat) / float64(time.Microsecond)
		i := int(s.at / sliceLen)
		per[i] = append(per[i], us)
		all = append(all, us)
	}
	var qps, p50, p99 []float64
	for _, lats := range per {
		qps = append(qps, float64(len(lats))/sliceLen.Seconds())
		if len(lats) == 0 {
			continue
		}
		p50 = append(p50, stats.Quantile(lats, 0.50))
		p99 = append(p99, stats.Quantile(lats, 0.99))
	}
	return windowStats{
		qps:      midmean(qps),
		p50us:    midmean(p50),
		p99us:    midmean(p99),
		p999us:   stats.Quantile(all, 0.999),
		inWindow: len(all),
	}
}

// qerrSummary returns the median and 95th percentile of a q-error list.
func qerrSummary(qerrs []float64) (p50, p95 float64) {
	return stats.Quantile(qerrs, 0.50), stats.Quantile(qerrs, 0.95)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
