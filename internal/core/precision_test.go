package core

import (
	"errors"
	"testing"

	"antgpu/internal/aco"
	"antgpu/internal/cuda"
	"antgpu/internal/tsp"
)

// f32LimitInstance builds an 8-city explicit instance whose distances sit
// just below the exact-float32 limit, with d(0, 7) = maxD.
func f32LimitInstance(t *testing.T, maxD int32) *tsp.Instance {
	t.Helper()
	const n = 8
	m := make([]int32, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m[i*n+j] = tsp.MaxExactDistF32 - int32(1000*(i+j))
		}
	}
	m[n-1] = maxD
	in, err := tsp.NewExplicit("f32limit", n, m)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// engineF32Paths builds the engine on the standalone path and on the
// derived-data path the pool's cache feeds.
func engineF32Paths(t *testing.T, in *tsp.Instance) map[string]func() (*Engine, error) {
	t.Helper()
	p := aco.DefaultParams()
	d, err := in.ComputeDerived(p.NN)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]func() (*Engine, error){
		"standalone": func() (*Engine, error) {
			return NewEngineWithOptions(cuda.TeslaM2050(), in, p, EngineOptions{})
		},
		"derived": func() (*Engine, error) {
			return NewEngineWithOptions(cuda.TeslaM2050(), in, p, EngineOptions{Derived: d})
		},
	}
}

// TestF32PrecisionEngineRefusesBeyondLimit: the engine's float32 distance
// buffer cannot hold 2^24+1 exactly, so building it fails with
// tsp.ErrF32Precision whether or not derived data is given.
func TestF32PrecisionEngineRefusesBeyondLimit(t *testing.T) {
	in := f32LimitInstance(t, tsp.MaxExactDistF32+1)
	for name, build := range engineF32Paths(t, in) {
		e, err := build()
		if !errors.Is(err, tsp.ErrF32Precision) {
			t.Errorf("%s: NewEngineWithOptions = (%v, %v), want tsp.ErrF32Precision", name, e, err)
		}
	}
}

// TestF32PrecisionEngineExactAtLimit: at exactly 2^24 every distance is
// exact, and the device buffer holds float32(d(i, j)) in every cell on
// both paths.
func TestF32PrecisionEngineExactAtLimit(t *testing.T) {
	in := f32LimitInstance(t, tsp.MaxExactDistF32)
	n := in.N()
	for name, build := range engineF32Paths(t, in) {
		e, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dist := e.dist.Data()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got, want := dist[i*n+j], float32(in.Dist(i, j)); got != want {
					t.Fatalf("%s: device d(%d,%d) = %v, want %v", name, i, j, got, want)
				}
			}
		}
		e.Free()
	}
}
