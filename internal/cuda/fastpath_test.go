package cuda_test

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"antgpu/internal/cuda"
)

// laneMasks are the masks the masked-op tests sweep: lane prefixes, which
// take the one-copy fast path, and masks that are not, which take the
// per-lane loop.
var laneMasks = []uint32{
	0x1, 0x7, 0xFFFF, 0x7FFFFFFF, 0xFFFFFFFF, // prefixes
	0x2, 0xF0, 0xFFFF0000, 0x80000001, 0xAAAAAAAA, 0x12345678, // not prefixes
	0, // issues nothing
}

const maskedBlock, maskedGrid = 64, 3

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// maskedF32Kernels returns a kernel pair that moves float32 data through
// every masked row op — global load, two texture fetches (the second mostly
// hitting the lines the first missed), shared store and load, global store
// — on the lanes in mask, as warp ops and as the per-lane scalar twin.
func maskedF32Kernels(mask uint32, vector bool) equivRun {
	n := maskedGrid*maskedBlock + 64
	src := cuda.MallocF32("src", n)
	dst := cuda.MallocF32("dst", n)
	for i := range src.Data() {
		src.Data()[i] = float32(i)*0.75 + 1
		dst.Data()[i] = -7
	}
	tex := cuda.BindTexture(src)
	cfg := cuda.LaunchConfig{Grid: cuda.D1(maskedGrid), Block: cuda.D1(maskedBlock), SharedBytes: 4 * maskedBlock}
	var k cuda.Kernel
	if vector {
		k = func(b *cuda.Block) {
			sh := b.SharedF32(maskedBlock)
			b.RunWarps(func(w *cuda.Warp) {
				g := b.LinearIdx()*maskedBlock + w.Base()
				var a, c, d [32]float32
				w.LdF32Masked(src, g+3, mask, a[:])
				w.TexF32Masked(tex, g+5, mask, c[:])
				w.TexF32Masked(tex, g+6, mask, d[:])
				for mk := mask; mk != 0; mk &= mk - 1 {
					l := bits.TrailingZeros32(mk)
					a[l] = a[l] + c[l] - d[l]
				}
				w.StShF32Masked(sh, w.Base(), mask, a[:])
			})
			b.Sync()
			b.RunWarps(func(w *cuda.Warp) {
				var a [32]float32
				w.LdShF32Masked(sh, w.Base(), mask, a[:])
				w.StF32Masked(dst, b.LinearIdx()*maskedBlock+w.Base(), mask, a[:])
			})
		}
	} else {
		k = func(b *cuda.Block) {
			sh := b.SharedF32(maskedBlock)
			b.Run(func(th *cuda.Thread) {
				if mask&(1<<uint(th.Lane())) == 0 {
					return
				}
				g := b.LinearIdx()*maskedBlock + th.ID()
				a := th.LdF32(src, g+3)
				c := th.TexF32(tex, g+5)
				d := th.TexF32(tex, g+6)
				th.StShF32(sh, th.ID(), a+c-d)
			})
			b.Sync()
			b.Run(func(th *cuda.Thread) {
				if mask&(1<<uint(th.Lane())) == 0 {
					return
				}
				th.StF32(dst, b.LinearIdx()*maskedBlock+th.ID(), th.LdShF32(sh, th.ID()))
			})
		}
	}
	return equivRun{cfg: cfg, k: k, dump: func() []uint32 { return f32bits(dst.Data()) }}
}

// maskedI32Kernels is maskedF32Kernels for the int32 ops.
func maskedI32Kernels(mask uint32, vector bool) equivRun {
	n := maskedGrid*maskedBlock + 64
	src := cuda.MallocI32("src", n)
	dst := cuda.MallocI32("dst", n)
	for i := range src.Data() {
		src.Data()[i] = int32(i*37 + 5)
		dst.Data()[i] = -7
	}
	cfg := cuda.LaunchConfig{Grid: cuda.D1(maskedGrid), Block: cuda.D1(maskedBlock), SharedBytes: 4 * maskedBlock}
	var k cuda.Kernel
	if vector {
		k = func(b *cuda.Block) {
			sh := b.SharedI32(maskedBlock)
			b.RunWarps(func(w *cuda.Warp) {
				var a [32]int32
				w.LdI32Masked(src, b.LinearIdx()*maskedBlock+w.Base()+3, mask, a[:])
				w.StShI32Masked(sh, w.Base(), mask, a[:])
			})
			b.Sync()
			b.RunWarps(func(w *cuda.Warp) {
				var a [32]int32
				w.LdShI32Masked(sh, w.Base(), mask, a[:])
				w.StI32Masked(dst, b.LinearIdx()*maskedBlock+w.Base(), mask, a[:])
			})
		}
	} else {
		k = func(b *cuda.Block) {
			sh := b.SharedI32(maskedBlock)
			b.Run(func(th *cuda.Thread) {
				if mask&(1<<uint(th.Lane())) == 0 {
					return
				}
				th.StShI32(sh, th.ID(), th.LdI32(src, b.LinearIdx()*maskedBlock+th.ID()+3))
			})
			b.Sync()
			b.Run(func(th *cuda.Thread) {
				if mask&(1<<uint(th.Lane())) == 0 {
					return
				}
				th.StI32(dst, b.LinearIdx()*maskedBlock+th.ID(), th.LdShI32(sh, th.ID()))
			})
		}
	}
	return equivRun{cfg: cfg, k: k, dump: func() []uint32 { return i32bits(dst.Data()) }}
}

// TestVectorEquivMaskedLanes compares the masked row ops, whose lane
// prefixes take a one-copy path, with the per-lane scalar twin on prefix
// and non-prefix masks: identical meters (texture hits, misses and
// TexMissInstr included) and identical output bits.
func TestVectorEquivMaskedLanes(t *testing.T) {
	for _, mask := range laneMasks {
		t.Run(fmt.Sprintf("%#x", mask), func(t *testing.T) {
			assertEquiv(t, func(vector bool) equivRun { return maskedF32Kernels(mask, vector) })
			assertEquiv(t, func(vector bool) equivRun { return maskedI32Kernels(mask, vector) })
			if mask == 0 {
				return
			}
			// The texture comparison must not be vacuous: the first fetch
			// misses, the second hits lines the first brought in.
			for _, vector := range []bool{false, true} {
				r := maskedF32Kernels(mask, vector)
				res, err := cuda.Launch(cuda.TeslaM2050(), r.cfg, "tex", r.k)
				if err != nil {
					t.Fatal(err)
				}
				m := res.Meter
				if m.TexHits == 0 || m.TexMisses == 0 || m.TexMissInstr == 0 {
					t.Errorf("vector=%v: want texture hits, misses and miss instructions, got %d/%d/%g",
						vector, m.TexHits, m.TexMisses, m.TexMissInstr)
				}
			}
		})
	}
}

// argMaxTreeWarps is the strict-greater shared-memory argmax tree written
// out as one RunWarps phase and one Sync per level: the reference that
// Block.ArgMaxSh must match meter for meter.
func argMaxTreeWarps(b *cuda.Block, vals []float32, idxs []int32, charge float64) {
	for s := b.Threads() / 2; s > 0; s /= 2 {
		b.RunWarps(func(w *cuda.Warp) {
			part := w.MaskTo(s - w.Base())
			if part == 0 {
				return
			}
			var aV, cV [32]float32
			var iV [32]int32
			w.LdShF32Masked(vals, w.Base(), part, aV[:])
			w.LdShF32Masked(vals, w.Base()+s, part, cV[:])
			w.Charge(charge)
			var imp uint32
			for mk := part; mk != 0; mk &= mk - 1 {
				l := bits.TrailingZeros32(mk)
				if cV[l] > aV[l] {
					imp |= 1 << uint(l)
				}
			}
			w.StShF32Masked(vals, w.Base(), imp, cV[:])
			w.LdShI32Masked(idxs, w.Base()+s, imp, iV[:])
			w.StShI32Masked(idxs, w.Base(), imp, iV[:])
		})
		b.Sync()
	}
}

// argMaxTreeThreads is the same tree on the scalar per-thread path.
func argMaxTreeThreads(b *cuda.Block, vals []float32, idxs []int32, charge float64) {
	for s := b.Threads() / 2; s > 0; s /= 2 {
		b.Run(func(t *cuda.Thread) {
			if t.ID() < s {
				a := t.LdShF32(vals, t.ID())
				c := t.LdShF32(vals, t.ID()+s)
				t.Charge(charge)
				if c > a {
					t.StShF32(vals, t.ID(), c)
					t.StShI32(idxs, t.ID(), t.LdShI32(idxs, t.ID()+s))
				}
			}
		})
		b.Sync()
	}
}

// argMaxInput fills n slots of one value pattern.
func argMaxInput(pattern string, n int, r *rand.Rand) []float32 {
	v := make([]float32, n)
	for i := range v {
		switch pattern {
		case "random":
			v[i] = r.Float32()
		case "ties":
			v[i] = float32(r.Intn(3))
		case "all-1":
			v[i] = -1
		case "signed-zero":
			v[i] = float32(math.Copysign(0, float64(r.Intn(2)*2-1)))
		case "nan":
			v[i] = r.Float32()
			if i%5 == 0 {
				v[i] = float32(math.NaN())
			}
		}
	}
	return v
}

// TestArgMaxShMatchesTree compares Block.ArgMaxSh with the explicit tree on
// both paths: identical Meter structs and bit-identical vals and idxs in
// every slot, on random values, ties, all -1, signed zeros and NaNs, at 32
// to 512 threads, with a whole and a fractional compare charge.
func TestArgMaxShMatchesTree(t *testing.T) {
	reductions := []struct {
		name   string
		reduce func(b *cuda.Block, vals []float32, idxs []int32, charge float64)
	}{
		{"ArgMaxSh", (*cuda.Block).ArgMaxSh},
		{"RunWarps tree", argMaxTreeWarps},
		{"Run tree", argMaxTreeThreads},
	}
	const grid = 3
	r := rand.New(rand.NewSource(1))
	for _, newDev := range []func() *cuda.Device{cuda.TeslaC1060, cuda.TeslaM2050} {
		for threads := 32; threads <= 512; threads *= 2 {
			for _, pattern := range []string{"random", "ties", "all-1", "signed-zero", "nan"} {
				inV := argMaxInput(pattern, grid*threads, r)
				inI := make([]int32, grid*threads)
				for i := range inI {
					inI[i] = int32(1000 + i)
				}
				for _, charge := range []float64{1, 0.3} {
					var ref cuda.Meter
					var refV, refI []uint32
					for ri, red := range reductions {
						outV := make([]float32, len(inV))
						outI := make([]int32, len(inI))
						k := func(b *cuda.Block) {
							off := b.LinearIdx() * threads
							vals := b.SharedF32(threads)
							idxs := b.SharedI32(threads)
							copy(vals, inV[off:])
							copy(idxs, inI[off:])
							red.reduce(b, vals, idxs, charge)
							copy(outV[off:], vals)
							copy(outI[off:], idxs)
						}
						cfg := cuda.LaunchConfig{Grid: cuda.D1(grid), Block: cuda.D1(threads), SharedBytes: 8 * threads}
						dev := newDev()
						res, err := cuda.Launch(dev, cfg, red.name, k)
						if err != nil {
							t.Fatal(err)
						}
						gotV, gotI := f32bits(outV), i32bits(outI)
						if ri == 0 {
							ref, refV, refI = res.Meter, gotV, gotI
							continue
						}
						where := fmt.Sprintf("%s, %d threads, %s, charge %g: %s", dev.Name, threads, pattern, charge, red.name)
						if res.Meter != ref {
							t.Errorf("%s: meters differ\nArgMaxSh: %+v\ntree:     %+v", where, ref, res.Meter)
						}
						for i := range gotV {
							if gotV[i] != refV[i] || gotI[i] != refI[i] {
								t.Errorf("%s: slot %d differs: ArgMaxSh (%#x, %d), tree (%#x, %d)",
									where, i, refV[i], int32(refI[i]), gotV[i], int32(gotI[i]))
								break
							}
						}
					}
				}
			}
		}
	}
}

// TestPhasesDoNotAllocate pins the block-resident phase handles: a serial
// launch of 64 phases allocates exactly as much as a launch of one, on both
// the scalar and the vector path.
func TestPhasesDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled blocks at random")
	}
	dev := cuda.TeslaM2050()
	cfg := cuda.LaunchConfig{Grid: cuda.D1(4), Block: cuda.D1(96), SerialBlocks: true}
	phases := map[string]func(b *cuda.Block){
		"Run":      func(b *cuda.Block) { b.Run(func(th *cuda.Thread) { th.Charge(1) }) },
		"RunWarps": func(b *cuda.Block) { b.RunWarps(func(w *cuda.Warp) { w.Charge(1) }) },
	}
	for name, phase := range phases {
		allocs := func(n int) float64 {
			k := func(b *cuda.Block) {
				for i := 0; i < n; i++ {
					phase(b)
				}
			}
			return testing.AllocsPerRun(50, func() {
				if _, err := cuda.Launch(dev, cfg, name, k); err != nil {
					t.Fatal(err)
				}
			})
		}
		if one, many := allocs(1), allocs(64); one != many {
			t.Errorf("%s: a launch of 1 phase allocates %g times, of 64 phases %g", name, one, many)
		}
	}
}
