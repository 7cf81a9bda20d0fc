package metrics_test

import (
	"math"
	"testing"

	"antgpu/internal/aco"
	"antgpu/internal/metrics"
	"antgpu/internal/rng"
	"antgpu/internal/tensor"
	"antgpu/internal/tsp"
)

// referenceEntropy and referenceLambda are the definitions the pheromone
// statistics implement, one closure call and one log per cell. The
// statistics must equal them bit for bit, not within a tolerance: they are
// published as gauges and streamed as iteration events.
func referenceEntropy(at func(int) float64, n int) float64 {
	if n < 3 {
		return 0
	}
	norm := math.Log(float64(n - 1))
	total := 0.0
	for i := 0; i < n; i++ {
		row := i * n
		sum := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				sum += at(row + j)
			}
		}
		if sum <= 0 {
			continue
		}
		h := 0.0
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			p := at(row+j) / sum
			if p > 0 {
				h -= p * math.Log(p)
			}
		}
		total += h / norm
	}
	return total / float64(n)
}

func referenceLambda(at func(int) float64, n int) float64 {
	if n < 2 {
		return 0
	}
	total := 0
	for i := 0; i < n; i++ {
		row := i * n
		lo, hi := math.Inf(1), math.Inf(-1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			v := at(row + j)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		cut := lo + metrics.LambdaBranchingFactor*(hi-lo)
		for j := 0; j < n; j++ {
			if j != i && at(row+j) >= cut {
				total++
			}
		}
	}
	return float64(total) / float64(n)
}

// checkStats asserts both statistics of pher, as float64 and as float32
// trails, are bit-identical to the references.
func checkStats(t *testing.T, name string, pher []float64, n int) {
	t.Helper()
	pher32 := make([]float32, len(pher))
	for i, v := range pher {
		pher32[i] = float32(v)
	}
	at64 := func(i int) float64 { return pher[i] }
	at32 := func(i int) float64 { return float64(pher32[i]) }
	for _, c := range []struct {
		stat      string
		got, want float64
	}{
		{"Entropy64", metrics.Entropy64(pher, n), referenceEntropy(at64, n)},
		{"Entropy32", metrics.Entropy32(pher32, n), referenceEntropy(at32, n)},
		{"LambdaBranching64", metrics.LambdaBranching64(pher, n), referenceLambda(at64, n)},
		{"LambdaBranching32", metrics.LambdaBranching32(pher32, n), referenceLambda(at32, n)},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Errorf("%s: %s = %v, reference %v", name, c.stat, c.got, c.want)
		}
	}
}

// evaporatedTau is an n×n matrix shaped like trails after a few
// iterations: most cells hold one evaporated τ0 value, a few per row hold
// deposits, and the rest of the row is split into runs of equal cells.
func evaporatedTau(n int, seed uint64) []float64 {
	g := rng.Seed(seed, 3)
	pher := make([]float64, n*n)
	for i := range pher {
		pher[i] = 0.125 * 0.5 * 0.5
		if g.Intn(10) == 0 {
			pher[i] += g.Float64()
		}
	}
	return pher
}

func TestPheromoneStatsMatchReference(t *testing.T) {
	g := rng.Seed(11, 1)
	const n = 61
	cells := func(f func(i int) float64) []float64 {
		p := make([]float64, n*n)
		for i := range p {
			p[i] = f(i)
		}
		return p
	}
	random := cells(func(int) float64 { return g.Float64() })
	zeroRows := cells(func(i int) float64 {
		if (i/n)%3 == 0 {
			return 0
		}
		return g.Float64()
	})
	zeroCells := cells(func(int) float64 {
		if g.Intn(4) == 0 {
			return 0
		}
		return g.Float64()
	})
	for _, c := range []struct {
		name string
		pher []float64
		n    int
	}{
		{"all-equal", cells(func(int) float64 { return 0.3 }), n},
		{"all-zero", cells(func(int) float64 { return 0 }), n},
		{"zero-rows", zeroRows, n},
		{"zero-cells", zeroCells, n},
		{"random", random, n},
		{"evaporated", evaporatedTau(n, 5), n},
		{"nearly-equal", cells(func(i int) float64 { return 0.3 + float64(i%3)*1e-13 }), n},
		{"n=0", nil, 0},
		{"n=1", []float64{0.5}, 1},
		{"n=2", []float64{0, 0.5, 0.25, 0}, 2},
		{"n=3", []float64{0, 1, 1, 1, 0, 2, 1, 2, 0}, 3},
	} {
		checkStats(t, c.name, c.pher, c.n)
	}

	tau := pr1002Tau(t)
	pher := make([]float64, len(tau))
	for i, v := range tau {
		pher[i] = float64(v)
	}
	checkStats(t, "pr1002 tensor run", pher, 1002)
}

// pr1002Tau returns the trails of a real tensor run in engine-large's
// shape: pr1002, 25 ants, 2-opt, 2 iterations.
func pr1002Tau(tb testing.TB) []float32 {
	tb.Helper()
	p := aco.DefaultParams()
	p.Ants = 25
	e, err := tensor.New(tsp.MustLoadBenchmark("pr1002"), p)
	if err != nil {
		tb.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 2; i++ {
		e.IterateWithLocalSearch(aco.FullProbabilistic)
	}
	// A copy: Close hands the engine's τ to the next engine of this size.
	return append([]float32(nil), e.Tau()...)
}

var statSink float64

// BenchmarkPheromoneStats times both statistics on a pr1002 τ from a
// tensor run, once per iteration as RecordPheromone32 computes them.
func BenchmarkPheromoneStats(b *testing.B) {
	tau := pr1002Tau(b)
	b.ReportAllocs()
	for b.Loop() {
		statSink = metrics.Entropy32(tau, 1002) + metrics.LambdaBranching32(tau, 1002)
	}
}
