package cuda_test

import (
	"testing"

	"antgpu/internal/cuda"
)

func TestTwoDimensionalGrid(t *testing.T) {
	dev := cuda.TeslaM2050()
	const gx, gy = 5, 3
	hits := cuda.MallocI32("hits", gx*gy)
	_, err := cuda.Launch(dev, cuda.LaunchConfig{
		Grid:  cuda.D2(gx, gy),
		Block: cuda.D1(32),
	}, "grid2d", func(b *cuda.Block) {
		b.Run(func(th *cuda.Thread) {
			if th.ID() != 0 {
				return
			}
			idx := b.Idx()
			if idx.Z != 0 {
				panic("z should be 0")
			}
			lin := b.GridDim().Linear(idx.X, idx.Y, idx.Z)
			if lin != b.LinearIdx() {
				panic("linear index mismatch")
			}
			th.AtomicAddI32(hits, lin, 1)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range hits.Data() {
		if v != 1 {
			t.Fatalf("block %d executed %d times", i, v)
		}
	}
}

func TestU64AccessesAreMeteredAtEightBytes(t *testing.T) {
	dev := cuda.TeslaC1060() // 32-byte segments: 4 u64 words each
	buf := cuda.MallocU64("states", 256)
	res, err := cuda.Launch(dev, cuda.LaunchConfig{Grid: cuda.D1(1), Block: cuda.D1(32)}, "u64",
		func(b *cuda.Block) {
			b.Run(func(th *cuda.Thread) {
				v := th.LdU64(buf, th.ID())
				th.StU64(buf, th.ID(), v+1)
			})
		})
	if err != nil {
		t.Fatal(err)
	}
	// 32 contiguous 8-byte words = 256 bytes = 8 segments, loads + stores.
	if res.Meter.GlobalLoadTx != 8 || res.Meter.GlobalStoreTx != 8 {
		t.Errorf("u64 tx = %d/%d, want 8/8", res.Meter.GlobalLoadTx, res.Meter.GlobalStoreTx)
	}
	for i, v := range buf.Data()[:32] {
		if v != 1 {
			t.Fatalf("word %d = %d, want 1", i, v)
		}
	}
}

func TestBlockDimAndWarpCount(t *testing.T) {
	dev := cuda.TeslaC1060()
	_, err := cuda.Launch(dev, cuda.LaunchConfig{Grid: cuda.D1(1), Block: cuda.D1(96)}, "dims",
		func(b *cuda.Block) {
			if b.Dim().X != 96 || b.Threads() != 96 || b.Warps() != 3 {
				panic("block geometry wrong")
			}
			if b.Device() != dev {
				panic("device accessor wrong")
			}
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSharedUsedTracksAllocations(t *testing.T) {
	dev := cuda.TeslaM2050()
	_, err := cuda.Launch(dev, cuda.LaunchConfig{Grid: cuda.D1(1), Block: cuda.D1(32)}, "shared",
		func(b *cuda.Block) {
			_ = b.SharedF32(100)
			_ = b.SharedI32(50)
			if b.SharedUsed() != 600 {
				panic("SharedUsed wrong")
			}
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLaunchResultFormatting(t *testing.T) {
	dev := cuda.TeslaC1060()
	res, err := cuda.Launch(dev, cuda.LaunchConfig{Grid: cuda.D1(1), Block: cuda.D1(32)}, "fmt-test",
		func(b *cuda.Block) {
			b.Run(func(th *cuda.Thread) { th.Charge(1) })
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Millis() != res.Seconds*1e3 {
		t.Error("Millis conversion wrong")
	}
	if s := res.String(); s == "" {
		t.Error("empty String()")
	}
	if s := res.Meter.String(); s == "" {
		t.Error("empty meter String()")
	}
}

func TestSharedAtomicsFunctionalAndSerialised(t *testing.T) {
	dev := cuda.TeslaM2050()
	out := cuda.MallocI32("out", 4)
	res, err := cuda.Launch(dev, cuda.LaunchConfig{Grid: cuda.D1(1), Block: cuda.D1(64)}, "shatom",
		func(b *cuda.Block) {
			local := b.SharedI32(4)
			b.Run(func(th *cuda.Thread) {
				if th.ID() < 4 {
					th.StShI32(local, th.ID(), 0)
				}
			})
			b.Sync()
			b.Run(func(th *cuda.Thread) {
				th.AtomicAddShI32(local, th.ID()%4, 1)
			})
			b.Sync()
			b.Run(func(th *cuda.Thread) {
				if th.ID() < 4 {
					th.StI32(out, th.ID(), th.LdShI32(local, th.ID()))
				}
			})
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Data() {
		if v != 16 { // 64 threads over 4 slots
			t.Fatalf("slot %d = %d, want 16", i, v)
		}
	}
	// Each warp: 32 lanes over 4 addresses -> 7 extra serialised per
	// address x 4 = 28 replays per warp, 2 warps = 56.
	if res.Meter.SharedReplays < 56 {
		t.Errorf("SharedReplays = %v, want >= 56 (conflicting shared atomics must serialise)",
			res.Meter.SharedReplays)
	}
}
