package cuda_test

import (
	"testing"

	"antgpu/internal/cuda"
)

// Host-performance benchmarks for the simulator itself: ns of wall-clock
// per simulated lane operation and allocations per launch, comparing the
// per-thread scalar path against the warp-vector fast path on the same
// access patterns. Run with:
//
//	go test -bench=Launch -benchmem ./internal/cuda/
const (
	benchElems = 1 << 15
	benchBlock = 256
)

func benchLoop(b *testing.B, cfg cuda.LaunchConfig, laneOps int, k cuda.Kernel) {
	b.Helper()
	dev := cuda.TeslaM2050()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cuda.Launch(dev, cfg, "bench", k); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(laneOps), "ns/lane-op")
}

func rowKernels() (scalar, vector cuda.Kernel, cfg cuda.LaunchConfig, src, dst *cuda.F32) {
	src = cuda.MallocF32("src", benchElems)
	dst = cuda.MallocF32("dst", benchElems)
	for i := range src.Data() {
		src.Data()[i] = float32(i)
	}
	cfg = cuda.LaunchConfig{Grid: cuda.D1(benchElems / benchBlock), Block: cuda.D1(benchBlock)}
	scalar = func(b *cuda.Block) {
		b.Run(func(th *cuda.Thread) {
			gid := th.GlobalID()
			v := th.LdF32(src, gid)
			th.Charge(1)
			th.StF32(dst, gid, v*2)
		})
	}
	vector = func(b *cuda.Block) {
		b.RunWarps(func(w *cuda.Warp) {
			gbase := b.LinearIdx()*b.Threads() + w.Base()
			var v [32]float32
			w.LdF32Masked(src, gbase, w.Mask(), v[:])
			w.Charge(1)
			for l := 0; l < 32; l++ {
				v[l] *= 2
			}
			w.StF32Masked(dst, gbase, w.Mask(), v[:])
		})
	}
	return
}

func BenchmarkLaunchScalarRows(b *testing.B) {
	scalar, _, cfg, _, _ := rowKernels()
	benchLoop(b, cfg, benchElems, scalar)
}

func BenchmarkLaunchVectorRows(b *testing.B) {
	_, vector, cfg, _, _ := rowKernels()
	benchLoop(b, cfg, benchElems, vector)
}

func atomicKernels() (scalar, vector cuda.Kernel, cfg cuda.LaunchConfig) {
	dst := cuda.MallocF32("hist", 4096)
	cfg = cuda.LaunchConfig{Grid: cuda.D1(benchElems / benchBlock), Block: cuda.D1(benchBlock)}
	scalar = func(b *cuda.Block) {
		b.Run(func(th *cuda.Thread) {
			gid := th.GlobalID()
			th.AtomicAddF32(dst, gid%4096, 1)
		})
	}
	vector = func(b *cuda.Block) {
		b.RunWarps(func(w *cuda.Warp) {
			gbase := b.LinearIdx()*b.Threads() + w.Base()
			var idxs [32]int32
			var ones [32]float32
			for l := 0; l < 32; l++ {
				idxs[l] = int32((gbase + l) % 4096)
				ones[l] = 1
			}
			w.AtomicAddF32Scatter(dst, idxs[:], w.Mask(), ones[:])
		})
	}
	return
}

func BenchmarkLaunchScalarAtomics(b *testing.B) {
	scalar, _, cfg := atomicKernels()
	benchLoop(b, cfg, benchElems, scalar)
}

func BenchmarkLaunchVectorAtomics(b *testing.B) {
	_, vector, cfg := atomicKernels()
	benchLoop(b, cfg, benchElems, vector)
}
