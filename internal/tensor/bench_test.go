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
// The tensor side resets τ to τ0 before each op, outside the timer: with
// few ants, an untouched trail shrinks by 1-ρ at every update and its
// float32 weight, then the trail itself, pass through the subnormal range,
// where each update and construction runs several times slower, so an op
// count past about 50 would time that window instead of the iteration.
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
			b.StopTimer()
			resetTau0(e)
			b.StartTimer()
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
	p.Workers = 1
	e, err := New(tsp.MustLoadBenchmark("pr1002"), p)
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

// BenchmarkUpdatePheromoneM25 times the AS pheromone update over 25
// full-rule tours, resetting τ to τ0 before each op so every op updates
// the same trails.
func BenchmarkUpdatePheromoneM25(b *testing.B) {
	e := benchEngineM25(b)
	e.ConstructTours(aco.FullProbabilistic)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		resetTau0(e)
		b.StartTimer()
		e.UpdatePheromone()
	}
}

// resetTau0 sets every trail of an AS engine back to τ0, as New does.
func resetTau0(e *Engine) {
	e.resetTau(float32(powOf(e.P.Alpha)(e.tau0)), float32(e.tau0))
}

// BenchmarkNewWithDerivedM25 times the engine-large job's engine set-up:
// a one-worker AS engine on pr1002 with 25 ants, the derived data given as
// the pool's cache would give it, so the op is the constructor's own n²
// work. Every op after the first builds on the previous op's closed
// matrix set and takes the η^β table it left for the same instance, so it
// allocates neither and only refills τ and the initial weights.
func BenchmarkNewWithDerivedM25(b *testing.B) {
	in := tsp.MustLoadBenchmark("pr1002")
	p := aco.DefaultParams()
	p.Ants = 25
	p.Workers = 1
	d, err := in.ComputeDerived(p.NN)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		e, err := NewWithDerived(in, p, d)
		if err != nil {
			b.Fatal(err)
		}
		e.Close()
	}
}

// BenchmarkNewWithDerivedDistinct500 times the upload-distinct job's
// engine set-up: a one-worker AS engine with 25 ants on each of eight
// distinct 500-city instances in turn, the derived data given. Each op
// builds on the previous op's closed matrix set and refills the η^β table
// it left for another instance.
func BenchmarkNewWithDerivedDistinct500(b *testing.B) {
	p := aco.DefaultParams()
	p.Ants = 25
	p.Workers = 1
	ins := make([]*tsp.Instance, 8)
	ds := make([]*tsp.Derived, len(ins))
	for i := range ins {
		in, err := tsp.Generate(tsp.GenSpec{Name: "upload", N: 500, Type: tsp.Euc2D, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if ds[i], err = in.ComputeDerived(p.NN); err != nil {
			b.Fatal(err)
		}
		ins[i] = in
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		e, err := NewWithDerived(ins[i], p, ds[i])
		if err != nil {
			b.Fatal(err)
		}
		e.Close()
		i = (i + 1) % len(ins)
	}
}
