package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is valid only when at
// least this many samples lie beyond it, so one outlier cannot set it.
const minBeyond = 10

// Hypervisor steal on a shared VM comes in bursts of seconds. The latency
// and throughput metrics are therefore medians over up to maxWindows
// consecutive windows of the measured jobs, in completion order, each of at
// least minWindow jobs (so each window's p90 obeys the percentile rule): a
// burst covering fewer than half of the windows moves none of them, while
// a change that slows a tenth of all jobs moves p90 in every window.
const (
	maxWindows = 5
	minWindow  = 100
)

// jobTime is one passed job: when it completed and how long it took, in
// seconds, completion counted from the start of the measured phase.
type jobTime struct{ done, latency float64 }

type windowed struct {
	p50, p90, throughput float64
	windows, jobs        int
	beyond               int // fewest jobs beyond p90 in any window
}

// windowStats splits jobs into an odd number of windows (one when there
// are too few jobs) and returns the median over the windows of each
// window's p50, p90 and throughput. A window's throughput is its jobs over
// the time from the previous window's last completion to its own.
func windowStats(jobs []jobTime) windowed {
	if len(jobs) == 0 {
		return windowed{p50: math.NaN(), p90: math.NaN(), throughput: math.NaN()}
	}
	jobs = append([]jobTime(nil), jobs...)
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].done < jobs[b].done })
	k := min(maxWindows, len(jobs)/minWindow)
	if k%2 == 0 {
		k--
	}
	k = max(k, 1)
	var out windowed
	var p50s, p90s, thrs []float64
	prev := 0.0
	for w := 0; w < k; w++ {
		lo, hi := w*len(jobs)/k, (w+1)*len(jobs)/k
		lat := make([]float64, 0, hi-lo)
		for _, j := range jobs[lo:hi] {
			lat = append(lat, j.latency)
		}
		a, _ := percentile(lat, 0.5)
		b, beyond := percentile(lat, 0.9)
		if w == 0 || beyond < out.beyond {
			out.beyond = beyond
		}
		end := jobs[hi-1].done
		p50s, p90s = append(p50s, a), append(p90s, b)
		thrs = append(thrs, float64(hi-lo)/(end-prev))
		prev = end
	}
	out.p50, out.p90, out.throughput = median(p50s), median(p90s), median(thrs)
	out.windows, out.jobs = k, len(jobs)
	return out
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs and the
// number of samples ranked beyond it. xs is not modified.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// median is the nearest-rank median.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
