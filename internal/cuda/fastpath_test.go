package cuda_test

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"antgpu/internal/cuda"
	"antgpu/internal/rng"
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

// iRouletteFunc is the signature Block.IRouletteTile and its references
// share.
type iRouletteFunc func(b *cuda.Block, choice *cuda.F32, tex *cuda.Texture, row, n, tile int,
	states []uint64, tabu []int32, vals []float32, idxs []int32, charge float64)

// iRouletteWarps is the I-Roulette tile phase written as one RunWarps phase
// of masked warp ops: the reference Block.IRouletteTile must match meter
// for meter.
func iRouletteWarps(b *cuda.Block, choice *cuda.F32, tex *cuda.Texture, row, n, tile int,
	states []uint64, tabu []int32, vals []float32, idxs []int32, charge float64) {
	b.RunWarps(func(w *cuda.Warp) {
		jbase := tile*b.Threads() + w.Base()
		inMask := w.MaskTo(n - jbase)
		outMask := w.Mask() &^ inMask
		var wv, valsV [32]float32
		var idxV [32]int32
		if inMask != 0 {
			if tex != nil {
				w.TexF32Masked(tex, row+jbase, inMask, wv[:])
			} else {
				w.LdF32Masked(choice, row+jbase, inMask, wv[:])
			}
		}
		for l := 0; l < w.Active(); l++ {
			tid := w.Base() + l
			if inMask&(1<<uint(l)) != 0 {
				r := rng.NextF32Raw(states, tid) + 1e-6
				tb := float32((tabu[tid] >> uint(tile)) & 1)
				valsV[l] = wv[l]*r*tb + (tb - 1)
			} else {
				valsV[l] = -1
			}
			idxV[l] = int32(jbase + l)
		}
		if inMask != 0 {
			w.Charge(charge)
		}
		w.StShF32Masked(vals, w.Base(), outMask, valsV[:])
		w.StShF32I32Row(vals, valsV[:], inMask, idxs, idxV[:], outMask, w.Base())
		w.StShI32Masked(idxs, w.Base(), inMask, idxV[:])
	})
}

// iRouletteThreads is the same phase on the scalar per-thread path.
func iRouletteThreads(b *cuda.Block, choice *cuda.F32, tex *cuda.Texture, row, n, tile int,
	states []uint64, tabu []int32, vals []float32, idxs []int32, charge float64) {
	b.Run(func(t *cuda.Thread) {
		j := tile*b.Threads() + t.ID()
		val := float32(-1)
		if j < n {
			var w float32
			if tex != nil {
				w = t.TexF32(tex, row+j)
			} else {
				w = t.LdF32(choice, row+j)
			}
			r := rng.NextF32Raw(states, t.ID()) + 1e-6
			tb := float32((tabu[t.ID()] >> uint(tile)) & 1)
			val = w*r*tb + (tb - 1)
			t.Charge(charge)
		}
		t.StShF32(vals, t.ID(), val)
		t.StShI32(idxs, t.ID(), int32(j))
	})
}

// TestIRouletteTileMatchesPhase compares Block.IRouletteTile with the tile
// phase it replaces on both paths: identical Meter structs and bit-identical
// vals, idxs and RNG states after every tile. It covers several tiles, a
// ragged last warp (48 threads), rows with no out-of-range lanes (n = 64)
// and warps with a single one (n = 95), random tabu bits (sunk lanes in every tile), random and all-zero choice
// rows, global and texture fetches, whole and fractional charges, and
// sampled launches.
func TestIRouletteTileMatchesPhase(t *testing.T) {
	phases := []struct {
		name  string
		phase iRouletteFunc
	}{
		{"IRouletteTile", (*cuda.Block).IRouletteTile},
		{"RunWarps phase", iRouletteWarps},
		{"Run phase", iRouletteThreads},
	}
	const grid = 5
	r := rand.New(rand.NewSource(1))
	texHits, texMisses, sunk, scored := false, false, false, false
	for _, newDev := range []func() *cuda.Device{cuda.TeslaC1060, cuda.TeslaM2050} {
		for _, threads := range []int{32, 48, 64, 128} {
			for _, n := range []int{100, 37, 64, 95} {
				tiles := (n + threads - 1) / threads
				inStates := make([]uint64, grid*threads)
				inTabu := make([]int32, grid*threads)
				for i := range inStates {
					inStates[i] = r.Uint64()
					inTabu[i] = int32(r.Uint32())
				}
				for _, pattern := range []string{"random", "zero"} {
					choice := cuda.MallocF32("choice", grid*n)
					if pattern == "random" {
						for i := range choice.Data() {
							choice.Data()[i] = r.Float32()
						}
					}
					for _, texture := range []bool{false, true} {
						var tex *cuda.Texture
						if texture {
							tex = cuda.BindTexture(choice)
						}
						for _, charge := range []float64{12, 0.3} {
							for _, stride := range []int{1, 2} {
								var ref cuda.Meter
								var refV, refI, refS []uint32
								for pi, ph := range phases {
									outV := make([]float32, grid*tiles*threads)
									outI := make([]int32, grid*tiles*threads)
									outS := make([]uint64, grid*threads)
									k := func(b *cuda.Block) {
										blk := b.LinearIdx()
										vals := b.SharedF32(threads)
										idxs := b.SharedI32(threads)
										states := b.RegsU64(threads)
										tabu := b.RegsI32(threads)
										copy(states, inStates[blk*threads:])
										copy(tabu, inTabu[blk*threads:])
										for tile := 0; tile < tiles; tile++ {
											for i := range vals {
												vals[i], idxs[i] = 7, -7 // every slot must be overwritten
											}
											ph.phase(b, choice, tex, blk*n, n, tile, states, tabu, vals, idxs, charge)
											b.Sync()
											off := (blk*tiles + tile) * threads
											copy(outV[off:], vals)
											copy(outI[off:], idxs)
										}
										copy(outS[blk*threads:], states)
									}
									cfg := cuda.LaunchConfig{Grid: cuda.D1(grid), Block: cuda.D1(threads),
										SharedBytes: 8 * threads, SampleStride: stride}
									dev := newDev()
									res, err := cuda.Launch(dev, cfg, ph.name, k)
									if err != nil {
										t.Fatal(err)
									}
									gotV, gotI := f32bits(outV), i32bits(outI)
									gotS := make([]uint32, 0, 2*len(outS))
									for _, s := range outS {
										gotS = append(gotS, uint32(s), uint32(s>>32))
									}
									if pi == 0 {
										ref, refV, refI, refS = res.Meter, gotV, gotI, gotS
										texHits = texHits || ref.TexHits > 0
										texMisses = texMisses || ref.TexMisses > 0
										for _, v := range outV {
											sunk = sunk || v == -1
											scored = scored || v > 0
										}
										continue
									}
									where := fmt.Sprintf("%s, %d threads, n %d, %s, texture %v, charge %g, stride %d: %s",
										dev.Name, threads, n, pattern, texture, charge, stride, ph.name)
									if res.Meter != ref {
										t.Errorf("%s: meters differ\nIRouletteTile: %+v\nphase:         %+v", where, ref, res.Meter)
									}
									for i := range gotV {
										if gotV[i] != refV[i] || gotI[i] != refI[i] {
											t.Errorf("%s: slot %d differs: IRouletteTile (%#x, %d), phase (%#x, %d)",
												where, i, refV[i], int32(refI[i]), gotV[i], int32(gotI[i]))
											break
										}
									}
									for i := range gotS {
										if gotS[i] != refS[i] {
											t.Errorf("%s: RNG state word %d differs", where, i)
											break
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if !texHits || !texMisses || !sunk || !scored {
		t.Errorf("vacuous sweep: texture hits %v, misses %v, sunk lanes %v, positive scores %v",
			texHits, texMisses, sunk, scored)
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

// stepTail is the end of one data-parallel construction step, after the
// tile argmax, written one way: keep each tile's winner, pick the step's
// city among the tile winners, and book it.
type stepTail struct {
	name   string
	store  func(b *cuda.Block, vals []float32, idxs []int32, bestV []float32, bestI []int32, tile int)
	winner func(b *cuda.Block, bestV []float32, bestI []int32, next []int32, charge float64) int32
	visit  func(b *cuda.Block, next, tabu []int32, dist *cuda.F32, row int, tours *cuda.I32, pos int,
		charge, bitCharge, laneCharge float64) (int, float32)
}

// storeTileBestWarps, tileWinnerWarps and visitCityWarps are the RunWarps
// phases that Block.StoreTileBest, Block.TileWinner and Block.VisitCity
// replace, as the vector data-parallel kernel wrote them: the references
// the collectives must match meter for meter.
func storeTileBestWarps(b *cuda.Block, vals []float32, idxs []int32, bestV []float32, bestI []int32, tile int) {
	b.RunWarps(func(w *cuda.Warp) {
		if w.ID() != 0 {
			return
		}
		v := [1]float32{w.LdShF32BcastMasked(vals, 0, 1)}
		w.StShF32Masked(bestV, tile, 1, v[:])
		i := [1]int32{w.LdShI32BcastMasked(idxs, 0, 1)}
		w.StShI32Masked(bestI, tile, 1, i[:])
	})
}

func tileWinnerWarps(b *cuda.Block, bestV []float32, bestI []int32, next []int32, charge float64) int32 {
	best := int32(-1)
	b.RunWarps(func(w *cuda.Warp) {
		if w.ID() != 0 {
			return
		}
		v := float32(-1)
		for tl := range bestV {
			if c := w.LdShF32BcastMasked(bestV, tl, 1); c > v {
				v = c
				best = w.LdShI32BcastMasked(bestI, tl, 1)
			}
		}
		w.Charge(float64(len(bestV)) * charge)
		if best < 0 {
			failNoCity(b)
		}
		i := [1]int32{best}
		w.StShI32Masked(next, 0, 1, i[:])
	})
	return best
}

func visitCityWarps(b *cuda.Block, next, tabu []int32, dist *cuda.F32, row int, tours *cuda.I32, pos int,
	charge, bitCharge, laneCharge float64) (int, float32) {
	threads := b.Threads()
	var city int
	var d float32
	b.RunWarps(func(w *cuda.Warp) {
		c := int(w.LdShI32Bcast(next, 0))
		owner := c % threads
		issues := charge
		if owner >= w.Base() && owner < w.Base()+w.Active() {
			tabu[owner] &^= 1 << uint(c/threads)
			if x := charge + bitCharge; x > issues {
				issues = x
			}
		}
		if w.ID() == 0 {
			x := charge + laneCharge
			if owner == 0 {
				x += bitCharge
			}
			if x > issues {
				issues = x
			}
			d = w.LdF32BcastMasked(dist, row+c, 1)
			city = c
			i := [1]int32{int32(c)}
			w.StI32Masked(tours, pos, 1, i[:])
		}
		w.Charge(issues)
	})
	return city, d
}

// storeTileBestThreads, tileWinnerThreads and visitCityThreads are the same
// phases on the scalar per-thread path, as the scalar kernel writes them.
func storeTileBestThreads(b *cuda.Block, vals []float32, idxs []int32, bestV []float32, bestI []int32, tile int) {
	b.Run(func(t *cuda.Thread) {
		if t.ID() == 0 {
			t.StShF32(bestV, tile, t.LdShF32(vals, 0))
			t.StShI32(bestI, tile, t.LdShI32(idxs, 0))
		}
	})
}

func tileWinnerThreads(b *cuda.Block, bestV []float32, bestI []int32, next []int32, charge float64) int32 {
	best := int32(-1)
	b.Run(func(t *cuda.Thread) {
		if t.ID() != 0 {
			return
		}
		v := float32(-1)
		for tl := range bestV {
			c := t.LdShF32(bestV, tl)
			t.Charge(charge)
			if c > v {
				v = c
				best = t.LdShI32(bestI, tl)
			}
		}
		if best < 0 {
			failNoCity(b)
		}
		t.StShI32(next, 0, best)
	})
	return best
}

func visitCityThreads(b *cuda.Block, next, tabu []int32, dist *cuda.F32, row int, tours *cuda.I32, pos int,
	charge, bitCharge, laneCharge float64) (int, float32) {
	threads := b.Threads()
	var city int
	var d float32
	b.Run(func(t *cuda.Thread) {
		c := int(t.LdShI32(next, 0))
		if c%threads == t.ID() {
			tabu[t.ID()] &^= 1 << uint(c/threads)
			t.Charge(bitCharge)
		}
		t.Charge(charge)
		if t.ID() == 0 {
			d = t.LdF32(dist, row+c)
			city = c
			t.StI32(tours, pos, int32(c))
			t.Charge(laneCharge)
		}
	})
	return city, d
}

// failNoCity fails the launch the way the data-parallel kernel does when no
// tile has a winner.
func failNoCity(b *cuda.Block) { b.Failf("selection found no city in block %d", b.LinearIdx()) }

// TestStepTailMatchesPhases compares the step-tail collectives
// (Block.StoreTileBest, Block.TileWinner and Block.VisitCity) with the
// RunWarps phases they replace and, for whole charges, with the scalar Run
// phases: identical Meter structs and bit-identical tile bests, winner
// slot, tabu words, tour entry, returned city and distance read. It covers
// 1 to 4 tiles with the winner in the first tile, in a later one (each
// improving tile adds an index load), among tied tiles and after sunk or NaN
// tiles; the winner's lane at lane 0 (whose path then adds the tabu charge),
// elsewhere in warp 0 and in a later warp; 32 to 128 threads and a ragged
// last warp (48); whole and fractional charges; and both devices. When no
// tile has a winner, every version fails the launch with the same error.
func TestStepTailMatchesPhases(t *testing.T) {
	tails := []stepTail{
		{"collectives", (*cuda.Block).StoreTileBest, (*cuda.Block).TileWinner, (*cuda.Block).VisitCity},
		{"RunWarps phases", storeTileBestWarps, tileWinnerWarps, visitCityWarps},
		{"Run phases", storeTileBestThreads, tileWinnerThreads, visitCityThreads},
	}
	nan := float32(math.NaN())
	patterns := []struct {
		name  string
		bests [4]float32 // the tile winners' scores, tile by tile
	}{
		{"first", [4]float32{0.9, 0.5, 0.7, 0.2}},
		{"later", [4]float32{0.1, 0.3, 0.6, 0.8}},
		{"ties", [4]float32{0.4, 0.4, 0.4, 0.4}},
		{"later-ties", [4]float32{0.2, 0.6, 0.6, 0.3}},
		{"sunk", [4]float32{-1, 0.5, -1, 0.7}},
		{"nan", [4]float32{nan, 0.3, nan, 0.5}},
		{"none", [4]float32{-1, -1, -1, -1}},
	}
	charges := []struct{ cmp, bit, lane float64 }{{1, 4, 1}, {0.1, 0.7, 0.3}}
	const row, pos = 3, 2
	r := rand.New(rand.NewSource(1))
	dist := cuda.MallocF32("dist", row+4*128)
	for i := range dist.Data() {
		dist.Data()[i] = r.Float32() * 100
	}
	failed, laterWins, laneZero, laterWarp := false, false, false, false
	for _, newDev := range []func() *cuda.Device{cuda.TeslaC1060, cuda.TeslaM2050} {
		for _, threads := range []int{32, 48, 64, 128} {
			inTabu := make([]int32, threads)
			for i := range inTabu {
				inTabu[i] = int32(r.Uint32())
			}
			for tiles := 1; tiles <= 4; tiles++ {
				for _, pat := range patterns {
					for _, lane := range []int{0, 5, threads/2 + 3, threads - 1} {
						// Tile tl's winner is city tl·threads + its lane; the
						// step's winner sits at lane, the others elsewhere.
						var tileI [4]int32
						for tl := range tileI {
							tileI[tl] = int32(tl*threads + (lane+7*(tl+1))%threads)
						}
						win := -1
						for tl, v := range pat.bests[:tiles] {
							if v > -1 && (win < 0 || v > pat.bests[win]) {
								win = tl
							}
						}
						if win >= 0 {
							tileI[win] = int32(win*threads + lane)
						}
						for _, ch := range charges {
							whole := ch.cmp == math.Trunc(ch.cmp)
							var ref cuda.Meter
							var refOut []uint32
							var refErr error
							for ti, tail := range tails {
								if !whole && tail.name == "Run phases" {
									// A scalar lane sums its charges in
									// another order, which only whole
									// charges survive bit for bit.
									continue
								}
								tours := cuda.MallocI32("tours", 4)
								var out []uint32
								k := func(b *cuda.Block) {
									vals := b.SharedF32(threads)
									idxs := b.SharedI32(threads)
									bestV := b.SharedF32(tiles)
									bestI := b.SharedI32(tiles)
									next := b.SharedI32(1)
									tabu := b.RegsI32(threads)
									copy(tabu, inTabu)
									for tl := 0; tl < tiles; tl++ {
										vals[0], idxs[0] = pat.bests[tl], tileI[tl]
										tail.store(b, vals, idxs, bestV, bestI, tl)
										b.Sync()
									}
									if tail.winner(b, bestV, bestI, next, ch.cmp) < 0 {
										failNoCity(b)
									}
									b.Sync()
									city, d := tail.visit(b, next, tabu, dist, row, tours, pos, ch.cmp, ch.bit, ch.lane)
									b.Sync()
									out = append(f32bits(bestV), i32bits(bestI)...)
									out = append(out, i32bits(tabu)...)
									out = append(out, uint32(next[0]), uint32(city), math.Float32bits(d))
									out = append(out, i32bits(tours.Data())...)
								}
								cfg := cuda.LaunchConfig{Grid: cuda.D1(1), Block: cuda.D1(threads), SharedBytes: 4 * (2*threads + 2*tiles + 1)}
								dev := newDev()
								res, err := cuda.Launch(dev, cfg, tail.name, k)
								where := fmt.Sprintf("%s, %d threads, %d tiles, %s, lane %d, charges %v: %s",
									dev.Name, threads, tiles, pat.name, lane, ch, tail.name)
								if (err != nil) != (win < 0) {
									t.Fatalf("%s: launch error %v, want one only when no tile has a winner", where, err)
								}
								if ti == 0 {
									ref, refOut, refErr = cuda.Meter{}, out, err
									if res != nil {
										ref = res.Meter
									}
									failed = failed || err != nil
									laterWins = laterWins || win > 0
									laneZero = laneZero || (win >= 0 && lane == 0)
									laterWarp = laterWarp || (win >= 0 && lane >= 32)
									continue
								}
								if err != nil {
									if err.Error() != refErr.Error() {
										t.Errorf("%s: launch error %q, collectives %q", where, err, refErr)
									}
									continue
								}
								if res.Meter != ref {
									t.Errorf("%s: meters differ\ncollectives: %+v\nphases:      %+v", where, ref, res.Meter)
								}
								for i := range out {
									if out[i] != refOut[i] {
										t.Errorf("%s: output word %d differs: collectives %#x, phases %#x", where, i, refOut[i], out[i])
										break
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if !failed || !laterWins || !laneZero || !laterWarp {
		t.Errorf("vacuous sweep: failures %v, later-tile winners %v, lane-0 winners %v, later-warp winners %v",
			failed, laterWins, laneZero, laterWarp)
	}
}
