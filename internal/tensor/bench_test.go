package tensor

import (
	"testing"

	"antgpu/internal/aco"
	"antgpu/internal/tsp"
)

// benchIterate times one full AS iteration of either engine. ants = 0
// keeps the paper's m = n; 25 is ACOTSP's default colony size, the
// few-ant regime where the colony's choice-info recomputation dominates
// (see internal/bench.Tensor for the sweep these spot benchmarks back).
func benchIterate(b *testing.B, name string, v aco.Variant, ants int, tensorSide bool) {
	b.Helper()
	in := tsp.MustLoadBenchmark(name)
	p := aco.DefaultParams()
	p.Ants = ants
	if tensorSide {
		e, err := New(in, p)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Iterate(v)
		}
		return
	}
	c, err := aco.New(in, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Iterate(v)
	}
}

func BenchmarkTensorIterate(b *testing.B) {
	benchIterate(b, "kroC100", aco.NNListConstruction, 0, true)
}

func BenchmarkColonyIterate(b *testing.B) {
	benchIterate(b, "kroC100", aco.NNListConstruction, 0, false)
}

func BenchmarkTensorIterateFull(b *testing.B) {
	benchIterate(b, "kroC100", aco.FullProbabilistic, 0, true)
}

func BenchmarkColonyIterateFull(b *testing.B) {
	benchIterate(b, "kroC100", aco.FullProbabilistic, 0, false)
}

func BenchmarkTensorIterateM25(b *testing.B) {
	benchIterate(b, "pr1002", aco.NNListConstruction, 25, true)
}

func BenchmarkColonyIterateM25(b *testing.B) {
	benchIterate(b, "pr1002", aco.NNListConstruction, 25, false)
}

// benchEngineM25 builds a one-worker AS engine on pr1002 with ACOTSP's
// default 25 ants — the engine-large job's shape.
func benchEngineM25(b *testing.B) *Engine {
	b.Helper()
	p := aco.DefaultParams()
	p.Ants = 25
	e, err := NewWithOptions(tsp.MustLoadBenchmark("pr1002"), p, nil, Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(e.Close)
	return e
}

// BenchmarkConstructFullM25 times one full-rule construction of all 25
// tours: the construction phase every service job runs.
func BenchmarkConstructFullM25(b *testing.B) {
	e := benchEngineM25(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ConstructTours(aco.FullProbabilistic)
	}
}

// BenchmarkLocalSearchM25 times the 2-opt pass over 25 full-rule tours,
// restoring the constructed tours before each op so every op does the
// same work.
func BenchmarkLocalSearchM25(b *testing.B) {
	e := benchEngineM25(b)
	e.ConstructTours(aco.FullProbabilistic)
	tours := append([]int32(nil), e.Tours...)
	lengths := append([]int64(nil), e.Lengths...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(e.Tours, tours)
		copy(e.Lengths, lengths)
		b.StartTimer()
		e.LocalSearchTours()
	}
}
