package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n       int
		p       float64
		want    float64
		wantOut int
	}{
		{100, 0.5, 50, 50},
		{100, 0.9, 90, 10},
		{99, 0.9, 90, 9},
		{1, 0.9, 1, 0},
		{10, 1, 10, 0},
	} {
		v, beyond := percentile(ramp(c.n), c.p)
		if v != c.want || beyond != c.wantOut {
			t.Errorf("percentile(1..%d, %v) = %v with %d beyond, want %v with %d", c.n, c.p, v, beyond, c.want, c.wantOut)
		}
	}
}

func steady(n int, latency float64) []jobTime {
	js := make([]jobTime, n)
	for i := range js {
		js[i] = jobTime{done: float64(i+1) * 0.01, latency: latency}
	}
	return js
}

func TestPercentileRuleNeedsTenBeyond(t *testing.T) {
	if ws := windowStats(steady(100, 1)); ws.windows != 1 || ws.beyond != 10 {
		t.Errorf("100 jobs: %d windows, %d beyond p90; want 1 window with 10 beyond", ws.windows, ws.beyond)
	}
	if ws := windowStats(steady(99, 1)); ws.beyond >= minBeyond {
		t.Errorf("99 jobs leave %d beyond p90, the rule needs %d: it must not pass", ws.beyond, minBeyond)
	}
	for _, n := range []int{199, 200, 450, 1000, 5000} {
		ws := windowStats(steady(n, 1))
		if ws.windows%2 != 1 || ws.windows > maxWindows || ws.beyond < minBeyond {
			t.Errorf("%d jobs: %d windows, %d beyond p90", n, ws.windows, ws.beyond)
		}
	}
}

func TestWindowsIgnoreABurst(t *testing.T) {
	js := steady(1000, 1)
	// A stall in the second of five windows: its jobs take ten times as
	// long and complete over twice the time.
	for i := 200; i < 400; i++ {
		js[i].latency = 10
		js[i].done += float64(i-200) * 0.01
	}
	for i := 400; i < len(js); i++ {
		js[i].done += 2
	}
	ws := windowStats(js)
	if ws.windows != 5 || ws.p50 != 1 || ws.p90 != 1 || math.Abs(ws.throughput-100) > 1e-6 {
		t.Errorf("burst moved the medians: %+v", ws)
	}
	// The same slowdown spread over every window moves p90.
	js = steady(1000, 1)
	for i := 0; i < len(js); i += 5 {
		js[i].latency = 10
	}
	if ws := windowStats(js); ws.p90 != 10 {
		t.Errorf("a slowdown of a fifth of all jobs left p90 at %v", ws.p90)
	}
}

func TestPercentileLeavesInputAlone(t *testing.T) {
	xs := ramp(5)
	percentile(xs, 0.5)
	if xs[0] != 5 {
		t.Fatal("percentile sorted its input in place")
	}
}
