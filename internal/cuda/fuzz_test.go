package cuda_test

import (
	"testing"
	"testing/quick"

	"antgpu/internal/cuda"
	"antgpu/internal/rng"
)

// Property tests driving randomised kernels through the simulator and
// asserting structural meter invariants.

// randomKernelMeters runs a kernel with a pseudo-random mix of operations
// derived from seed and returns the resulting meters.
func randomKernelMeters(t *testing.T, seed uint64, blocks, threads int) cuda.Meter {
	t.Helper()
	dev := cuda.TeslaC1060()
	buf := cuda.MallocF32("f", 1<<14)
	// Stores go to a separate buffer, each block to its own 2048-element
	// region: blocks run on concurrent goroutines, and a store to an
	// element another block loads would be a data race.
	out := cuda.MallocF32("out", 1<<14)
	ibuf := cuda.MallocI32("i", 1<<14)
	tex := cuda.BindTexture(buf)
	res, err := cuda.Launch(dev, cuda.LaunchConfig{
		Grid: cuda.D1(blocks), Block: cuda.D1(threads),
	}, "fuzz", func(b *cuda.Block) {
		sh := b.SharedF32(threads)
		g := rng.Seed(seed, uint64(b.LinearIdx()))
		phases := g.Intn(4) + 1
		for p := 0; p < phases; p++ {
			opsPerLane := g.Intn(20) + 1
			// Per-phase op schedule shared by all lanes (lock-step-ish),
			// with per-lane addresses.
			kinds := make([]int, opsPerLane)
			for i := range kinds {
				kinds[i] = g.Intn(6)
			}
			addrSeed := g.Uint64()
			b.Run(func(th *cuda.Thread) {
				lg := rng.Seed(addrSeed, uint64(th.ID()))
				for _, k := range kinds {
					idx := lg.Intn(1 << 14)
					switch k {
					case 0:
						_ = th.LdF32(buf, idx)
					case 1:
						th.StF32(out, b.LinearIdx()<<11|idx&(1<<11-1), 1)
					case 2:
						_ = th.LdShF32(sh, idx%len(sh))
					case 3:
						_ = th.TexF32(tex, idx)
					case 4:
						th.AtomicAddI32(ibuf, idx%64, 1)
					default:
						th.Charge(float64(idx%5) + 1)
					}
				}
			})
			b.Sync()
		}
	})
	if err != nil {
		t.Fatalf("fuzz kernel failed: %v", err)
	}
	return res.Meter
}

func TestFuzzMeterInvariants(t *testing.T) {
	f := func(seed uint64, rawBlocks, rawThreads uint8) bool {
		blocks := int(rawBlocks)%6 + 1
		threads := (int(rawThreads)%4 + 1) * 32
		m := randomKernelMeters(t, seed, blocks, threads)

		// Transactions never exceed per-lane operations (atomics are RMW:
		// they produce load and store transactions without load/store ops).
		if m.GlobalLoadTx > m.GlobalLoadOps+m.AtomicOps {
			return false
		}
		if m.GlobalStoreTx > m.GlobalStoreOps+m.AtomicOps {
			return false
		}
		if int64(m.GlobalLoadInstr) > m.GlobalLoadOps {
			return false
		}
		// Issues include every memory instruction.
		if m.Issues() < m.MemIssues() {
			return false
		}
		// Texture accounting: hits + misses equal probed lines, fetches
		// equal per-lane operations, and miss instructions are bounded by
		// texture instructions.
		if m.TexMissInstr > m.TexInstr {
			return false
		}
		if m.TexHits+m.TexMisses > m.TexFetches {
			return false
		}
		// Structure: every block executed once; warps follow from geometry.
		if m.BlocksExecuted != int64(blocks) {
			return false
		}
		if m.WarpsExecuted != int64(blocks*(threads/32)) {
			return false
		}
		return m.LaneOps > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFuzzDeterministicReplay(t *testing.T) {
	f := func(seed uint64) bool {
		a := randomKernelMeters(t, seed, 3, 64)
		b := randomKernelMeters(t, seed, 3, 64)
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestFuzzTimingPositiveAndFinite(t *testing.T) {
	dev := cuda.TeslaM2050()
	f := func(seed uint64) bool {
		m := randomKernelMeters(t, seed, 4, 96)
		cfg := cuda.LaunchConfig{Grid: cuda.D1(4), Block: cuda.D1(96)}
		secs, bd := cuda.EstimateTime(dev, &cfg, &m)
		if !(secs > 0) || secs > 1e6 {
			return false
		}
		return bd.Bound == "compute" || bd.Bound == "memory" || bd.Bound == "latency"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
