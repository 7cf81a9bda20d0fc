package cuda_test

import (
	"testing"

	"antgpu/internal/cuda"
)

// blockArrays takes every kind of block array a kernel can ask for.
func blockArrays(b *cuda.Block, n int) {
	b.SharedF32(n)
	b.SharedI32(n)
	b.RegsF32(n)
	b.RegsI32(n)
	b.RegsU64(n)
}

// TestBlocksDoNotAllocate pins the block-resident arrays: the shared and
// register arrays of a block reuse memory the pooled Block keeps, so a
// serial launch of 64 blocks allocates as often as a launch of one.
func TestBlocksDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled blocks at random")
	}
	dev := cuda.TeslaM2050()
	allocs := func(blocks int) float64 {
		cfg := cuda.LaunchConfig{Grid: cuda.D1(blocks), Block: cuda.D1(96), SharedBytes: 2 * 4 * 96, SerialBlocks: true}
		k := func(b *cuda.Block) { blockArrays(b, b.Threads()) }
		return testing.AllocsPerRun(50, func() {
			if _, err := cuda.Launch(dev, cfg, "arrays", k); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(64); one != many {
		t.Errorf("a launch of 1 block allocates %g times, of 64 blocks %g", one, many)
	}
}

// TestBlocksReuseArrayMemory checks that every block of a serial launch
// after the first gets its arrays at the same addresses: the memory is
// reclaimed per block, not abandoned.
func TestBlocksReuseArrayMemory(t *testing.T) {
	dev := cuda.TeslaM2050()
	const blocks = 8
	cfg := cuda.LaunchConfig{Grid: cuda.D1(blocks), Block: cuda.D1(64), SharedBytes: 2 * 4 * 64, SerialBlocks: true}
	var sh [blocks]*float32
	var regs [blocks]*uint64
	k := func(b *cuda.Block) {
		i := b.LinearIdx()
		sh[i] = &b.SharedF32(b.Threads())[0]
		b.SharedI32(b.Threads())
		b.RegsI32(b.Threads())
		regs[i] = &b.RegsU64(b.Threads())[0]
	}
	if _, err := cuda.Launch(dev, cfg, "reuse", k); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < blocks; i++ {
		if sh[i] != sh[1] || regs[i] != regs[1] {
			t.Fatalf("block %d took its arrays at new addresses", i)
		}
	}
}

// TestBlockArraysZeroedAndDisjoint checks what make used to guarantee:
// every array a block takes is zeroed, has len == cap == n and shares no
// element with another array of the same block, also when a block takes
// more than the pooled memory holds and it grows mid-block.
func TestBlockArraysZeroedAndDisjoint(t *testing.T) {
	dev := cuda.TeslaM2050()
	const blocks = 6
	cfg := cuda.LaunchConfig{Grid: cuda.D1(blocks), Block: cuda.D1(64), SharedBytes: 16 << 10, SerialBlocks: true}
	k := func(b *cuda.Block) {
		blk := b.LinearIdx()
		var f32s [][]float32
		var i32s [][]int32
		var u64s [][]uint64
		// Growing sizes, so the later blocks outgrow what the earlier
		// ones left behind.
		for i := 0; i < 3; i++ {
			n := 7 + 40*blk + 13*i
			f32s = append(f32s, b.SharedF32(n), b.RegsF32(n))
			i32s = append(i32s, b.SharedI32(n), b.RegsI32(n))
			u64s = append(u64s, b.RegsU64(n))
			for _, s := range [][]float32{f32s[len(f32s)-2], f32s[len(f32s)-1]} {
				checkFresh(t, blk, s, n)
			}
			for _, s := range [][]int32{i32s[len(i32s)-2], i32s[len(i32s)-1]} {
				checkFresh(t, blk, s, n)
			}
			checkFresh(t, blk, u64s[len(u64s)-1], n)
			// Dirty every array with its own tag: the next array and the
			// next block must still see zeros.
			tag := 1 + blk*100 + 10*i
			fill(f32s[len(f32s)-2], float32(tag))
			fill(f32s[len(f32s)-1], float32(tag+1))
			fill(i32s[len(i32s)-2], int32(tag))
			fill(i32s[len(i32s)-1], int32(tag+1))
			fill(u64s[len(u64s)-1], uint64(tag))
		}
		for i := 0; i < 3; i++ {
			tag := 1 + blk*100 + 10*i
			checkAll(t, blk, f32s[2*i], float32(tag))
			checkAll(t, blk, f32s[2*i+1], float32(tag+1))
			checkAll(t, blk, i32s[2*i], int32(tag))
			checkAll(t, blk, i32s[2*i+1], int32(tag+1))
			checkAll(t, blk, u64s[i], uint64(tag))
		}
	}
	for run := 0; run < 2; run++ {
		if _, err := cuda.Launch(dev, cfg, "arrays", k); err != nil {
			t.Fatal(err)
		}
	}
}

func checkFresh[T float32 | int32 | uint64](t *testing.T, blk int, s []T, n int) {
	t.Helper()
	if len(s) != n || cap(s) != n {
		t.Errorf("block %d: array has len %d cap %d, want %d", blk, len(s), cap(s), n)
	}
	checkAll(t, blk, s, 0)
}

func checkAll[T float32 | int32 | uint64](t *testing.T, blk int, s []T, want T) {
	t.Helper()
	for i, v := range s {
		if v != want {
			t.Errorf("block %d: element %d is %v, want %v", blk, i, v, want)
			return
		}
	}
}

func fill[T float32 | int32 | uint64](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// TestAtomicMetersWithReusedTables runs atomic launches whose cross-block
// histograms differ in size and keys, in an order that hands each launch
// the tables the previous one emptied, and requires every repeat to meter
// exactly what its first run did.
func TestAtomicMetersWithReusedTables(t *testing.T) {
	dev := cuda.TeslaM2050()
	buf := cuda.MallocF32("acc", 1<<14)
	other := cuda.MallocF32("other", 1<<14)
	type launch struct {
		name   string
		cfg    cuda.LaunchConfig
		kernel cuda.Kernel
	}
	atomics := func(dst *cuda.F32, span, stride int) cuda.Kernel {
		return func(b *cuda.Block) {
			b.Run(func(th *cuda.Thread) {
				// Every block hits a shared window and a private one, so
				// both kinds of address reach the histogram.
				th.AtomicAddF32(dst, (th.ID()*stride)%span, 1)
				th.AtomicAddF32(dst, span+b.LinearIdx()*b.Threads()+th.ID(), 1)
			})
		}
	}
	launches := []launch{
		{"wide", cuda.LaunchConfig{Grid: cuda.D1(24), Block: cuda.D1(128)}, atomics(buf, 4096, 37)},
		{"narrow-serial", cuda.LaunchConfig{Grid: cuda.D1(5), Block: cuda.D1(64), SerialBlocks: true}, atomics(other, 16, 3)},
		{"sampled", cuda.LaunchConfig{Grid: cuda.D1(40), Block: cuda.D1(64), SampleStride: 3}, atomics(buf, 512, 5)},
		{"none", cuda.LaunchConfig{Grid: cuda.D1(8), Block: cuda.D1(32)}, func(b *cuda.Block) {
			b.Run(func(th *cuda.Thread) { th.Charge(1) })
		}},
	}
	first := map[string]cuda.Meter{}
	for round := 0; round < 3; round++ {
		for _, l := range launches {
			res, err := cuda.Launch(dev, l.cfg, l.name, l.kernel)
			if err != nil {
				t.Fatal(err)
			}
			if round == 0 {
				first[l.name] = res.Meter
				continue
			}
			if res.Meter != first[l.name] {
				t.Errorf("round %d, %s: meter\n%+v\nwant the first run's\n%+v", round, l.name, res.Meter, first[l.name])
			}
		}
	}
	if m := first["wide"]; m.AtomicDistinctAddr == 0 || m.AtomicSerialExtra == 0 {
		t.Fatalf("the wide launch meters no cross-block atomics: %+v", m)
	}
}
