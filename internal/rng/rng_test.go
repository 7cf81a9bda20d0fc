package rng_test

import (
	"math"
	"testing"
	"testing/quick"

	"antgpu/internal/cuda"
	"antgpu/internal/rng"
)

func TestSeedDeterminism(t *testing.T) {
	a := rng.Seed(42, 7)
	b := rng.Seed(42, 7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedStreamsDiffer(t *testing.T) {
	a := rng.Seed(42, 0)
	b := rng.Seed(42, 1)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams 0 and 1 collided %d times in 64 draws", same)
	}
}

func TestFloat32Range(t *testing.T) {
	g := rng.Seed(1, 0)
	for i := 0; i < 10000; i++ {
		v := g.Float32()
		if v < 0 || v >= 1 {
			t.Fatalf("Float32() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	g := rng.Seed(2, 0)
	for i := 0; i < 10000; i++ {
		v := g.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat32Uniformity(t *testing.T) {
	g := rng.Seed(3, 5)
	const n = 200000
	const buckets = 16
	var hist [buckets]int
	sum := 0.0
	for i := 0; i < n; i++ {
		v := g.Float32()
		hist[int(v*buckets)]++
		sum += float64(v)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
	for b, c := range hist {
		expect := float64(n) / buckets
		if math.Abs(float64(c)-expect) > expect*0.1 {
			t.Errorf("bucket %d has %d draws, expected ~%.0f", b, c, expect)
		}
	}
}

func TestIntnBoundsProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw)%1000 + 1
		g := rng.Seed(seed, 0)
		for i := 0; i < 50; i++ {
			v := g.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	g := rng.Seed(1, 1)
	g.Intn(0)
}

func TestStateRoundTrip(t *testing.T) {
	g := rng.Seed(9, 3)
	g.Uint64()
	s := g.State()
	h := rng.FromState(s)
	if g.Uint64() != h.Uint64() {
		t.Error("FromState(State()) produced a different stream")
	}
}

// seedStates gives each register-file state i the stream rng.Seed(seed, i),
// as the kernels seed their per-thread states.
func seedStates(states []uint64, seed uint64) {
	for i := range states {
		states[i] = rng.Seed(seed, uint64(i)).State()
	}
}

func TestDeviceLCGMatchesHost(t *testing.T) {
	dev := cuda.TeslaM2050()
	const threads = 64
	states := make([]uint64, threads)
	seedStates(states, 123)
	out := cuda.MallocF32("draws", threads)

	res, err := cuda.Launch(dev, cuda.LaunchConfig{Grid: cuda.D1(1), Block: cuda.D1(threads)}, "rng",
		func(b *cuda.Block) {
			b.Run(func(th *cuda.Thread) {
				v := th.LCGF32(states, th.ID())
				th.StF32(out, th.ID(), v)
			})
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < threads; i++ {
		g := rng.Seed(123, uint64(i))
		if want := g.Float32(); out.Data()[i] != want {
			t.Fatalf("thread %d drew %v, host stream gives %v", i, out.Data()[i], want)
		}
	}
	if res.Meter.ComputeIssues < rng.DeviceLCGCharge {
		t.Errorf("device LCG charged %v issues, want >= %v", res.Meter.ComputeIssues, rng.DeviceLCGCharge)
	}
	if res.Meter.GlobalLoadOps != 0 {
		t.Errorf("register LCG must not touch global memory, got %d loads", res.Meter.GlobalLoadOps)
	}
}

func TestLibraryRNGIsCostlier(t *testing.T) {
	dev := cuda.TeslaC1060()
	const threads = 128
	cfg := cuda.LaunchConfig{Grid: cuda.D1(1), Block: cuda.D1(threads)}

	regStates := make([]uint64, threads)
	seedStates(regStates, 7)
	lcg, err := cuda.Launch(dev, cfg, "lcg", func(b *cuda.Block) {
		b.Run(func(th *cuda.Thread) {
			for k := 0; k < 8; k++ {
				_ = th.LCGF32(regStates, th.ID())
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}

	libStates := cuda.MallocU64("states", threads*rng.LibStateWords)
	rng.SeedLibStates(libStates.Data(), 7, threads)
	lib, err := cuda.Launch(dev, cfg, "lib", func(b *cuda.Block) {
		b.Run(func(th *cuda.Thread) {
			for k := 0; k < 8; k++ {
				_ = th.LibF32(libStates, th.ID())
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}

	if lib.Seconds <= lcg.Seconds {
		t.Errorf("library RNG (%v) should be slower than device LCG (%v)", lib.Seconds, lcg.Seconds)
	}
	if lib.Meter.GlobalLoadOps == 0 || lib.Meter.GlobalStoreOps == 0 {
		t.Error("library RNG must round-trip its state through global memory")
	}
}

func TestSeedStatesDistinct(t *testing.T) {
	states := make([]uint64, 256)
	seedStates(states, 99)
	seen := map[uint64]bool{}
	for _, v := range states {
		if seen[v] {
			t.Fatal("duplicate initial state across streams")
		}
		seen[v] = true
	}
}
