package metrics_test

import (
	"bytes"
	"fmt"
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
	e64, l64 := metrics.PheromoneStats64(pher, n)
	e32, l32 := metrics.PheromoneStats32(pher32, n)
	for _, c := range []struct {
		stat      string
		got, want float64
	}{
		{"entropy (float64)", e64, referenceEntropy(at64, n)},
		{"entropy (float32)", e32, referenceEntropy(at32, n)},
		{"λ-branching (float64)", l64, referenceLambda(at64, n)},
		{"λ-branching (float32)", l32, referenceLambda(at32, n)},
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

// TestPheromoneStatsMatchReference compares both statistics with the
// references on shaped matrices of every n from 3 to 13 (every n mod 4
// tail, and blocks of four rows before, around and after the diagonal
// cells' columns), on n = 61, on the degenerate n = 0, 1 and 2, and on the
// trails of a real pr1002 tensor run.
func TestPheromoneStatsMatchReference(t *testing.T) {
	g := rng.Seed(11, 1)
	for _, n := range []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 61} {
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
		}{
			{"all-equal", cells(func(int) float64 { return 0.3 })},
			{"all-zero", cells(func(int) float64 { return 0 })},
			{"zero-rows", zeroRows},
			{"zero-cells", zeroCells},
			{"random", random},
			{"evaporated", evaporatedTau(n, 5)},
			{"nearly-equal", cells(func(i int) float64 { return 0.3 + float64(i%3)*1e-13 })},
		} {
			checkStats(t, fmt.Sprintf("n=%d %s", n, c.name), c.pher, n)
		}
	}
	checkStats(t, "n=0", nil, 0)
	checkStats(t, "n=1", []float64{0.5}, 1)
	checkStats(t, "n=2", []float64{0, 0.5, 0.25, 0}, 2)

	tau := pr1002Tau(t)
	pher := make([]float64, len(tau))
	for i, v := range tau {
		pher[i] = float64(v)
	}
	checkStats(t, "pr1002 tensor run", pher, 1002)
}

// FuzzPheromoneStats compares both statistics with the references on
// matrices of up to 16 cities built from the fuzz bytes: the first byte
// picks n, and each cell takes one byte, an index into statsCells (0 past
// the data's end), so inputs reach NaN, ±Inf, −0, zero rows and runs of
// equal cells.
func FuzzPheromoneStats(f *testing.F) {
	f.Add([]byte{3, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add(append([]byte{4}, bytes.Repeat([]byte{0}, 16)...)) // all −0
	f.Add(append([]byte{5}, bytes.Repeat([]byte{2}, 25)...)) // all-zero rows
	f.Add([]byte{5, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7})
	f.Add([]byte{6, 8, 9, 10, 11, 12, 1, 2, 3, 8, 8, 8, 9, 9, 13, 14, 15, 1, 2, 3, 4, 5, 6, 7})
	f.Add(append([]byte{16}, bytes.Repeat([]byte{1, 1, 1, 5, 1, 1, 0, 1}, 32)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 17
		pher := make([]float64, n*n)
		for i := range pher {
			if 1+i < len(data) {
				pher[i] = statsCells[int(data[1+i])%len(statsCells)]
			}
		}
		checkStats(t, fmt.Sprintf("n=%d", n), pher, n)
	})
}

// statsCells are the values a FuzzPheromoneStats cell can take.
var statsCells = []float64{
	math.Copysign(0, -1), 0.125, 0, 1, 0.5, 2, 1e-30,
	math.NaN(), math.Inf(1), math.Inf(-1), -1, 3e38, 1e300, math.SmallestNonzeroFloat64, 0.3,
	0.1 + 0.2,
}

// TestPheromoneStatsAllocateNothing: the statistics run once per
// iteration of every observed solve and make no allocation.
func TestPheromoneStatsAllocateNothing(t *testing.T) {
	const n = 61
	tau := make([]float32, n*n)
	for i, v := range evaporatedTau(n, 7) {
		tau[i] = float32(v)
	}
	c := metrics.NewConvergence(metrics.New(), "u61", "as", "tensor", 0)
	if a := testing.AllocsPerRun(10, func() { c.RecordPheromone32(tau, n) }); a != 0 {
		t.Fatalf("RecordPheromone32 allocates %v times per call, want 0", a)
	}
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

// upload500Tau returns the trails of an upload-distinct job: a distinct
// 500-city EUC_2D instance, 25 ants, one full-rule iteration.
func upload500Tau(tb testing.TB) []float32 {
	tb.Helper()
	in, err := tsp.Generate(tsp.GenSpec{Name: "upload", N: 500, Type: tsp.Euc2D, Seed: 1, Width: 10000})
	if err != nil {
		tb.Fatal(err)
	}
	p := aco.DefaultParams()
	p.Ants = 25
	e, err := tensor.New(in, p)
	if err != nil {
		tb.Fatal(err)
	}
	defer e.Close()
	e.Iterate(aco.FullProbabilistic)
	return append([]float32(nil), e.Tau()...)
}

var entropySink, lambdaSink float64

// BenchmarkPheromoneStats times both statistics, as RecordPheromone32
// computes them once per iteration, on a pr1002 τ from an engine-large
// tensor run and on an n = 500 τ from an upload-distinct job.
func BenchmarkPheromoneStats(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
		tau  func(testing.TB) []float32
	}{
		{"pr1002", 1002, pr1002Tau},
		{"upload500", 500, upload500Tau},
	} {
		b.Run(c.name, func(b *testing.B) {
			tau := c.tau(b)
			b.ReportAllocs()
			for b.Loop() {
				entropySink, lambdaSink = metrics.PheromoneStats32(tau, c.n)
			}
		})
	}
}
