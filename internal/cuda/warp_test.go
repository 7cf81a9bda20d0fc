package cuda_test

import (
	"math"
	"math/bits"
	"testing"

	"antgpu/internal/cuda"
)

// equivRun is one side of a scalar-vs-vector meter-equivalence case: a
// launch configuration, the kernel, and a dump of every output buffer as
// raw bits (so NaN payloads and signed zeros compare exactly).
type equivRun struct {
	cfg  cuda.LaunchConfig
	k    cuda.Kernel
	dump func() []uint32
}

func f32bits(d []float32) []uint32 {
	out := make([]uint32, len(d))
	for i, v := range d {
		out[i] = math.Float32bits(v)
	}
	return out
}

func i32bits(d []int32) []uint32 {
	out := make([]uint32, len(d))
	for i, v := range d {
		out[i] = uint32(v)
	}
	return out
}

// assertEquiv builds the scalar and vector runs fresh for every (device,
// serial) combination and asserts identical Meter structs and identical
// output bits.
func assertEquiv(t *testing.T, mk func(vector bool) equivRun) {
	t.Helper()
	for _, newDev := range []func() *cuda.Device{cuda.TeslaC1060, cuda.TeslaM2050} {
		for _, serial := range []bool{true, false} {
			s := mk(false)
			v := mk(true)
			s.cfg.SerialBlocks = serial
			v.cfg.SerialBlocks = serial
			ds, dv := newDev(), newDev()
			rs, err := cuda.Launch(ds, s.cfg, "scalar", s.k)
			if err != nil {
				t.Fatalf("scalar launch on %s: %v", ds.Name, err)
			}
			rv, err := cuda.Launch(dv, v.cfg, "vector", v.k)
			if err != nil {
				t.Fatalf("vector launch on %s: %v", dv.Name, err)
			}
			if rs.Meter != rv.Meter {
				t.Errorf("%s serial=%v: meters differ\nscalar: %+v\nvector: %+v",
					ds.Name, serial, rs.Meter, rv.Meter)
			}
			sb, vb := s.dump(), v.dump()
			if len(sb) != len(vb) {
				t.Fatalf("%s serial=%v: dump lengths differ: %d vs %d", ds.Name, serial, len(sb), len(vb))
			}
			for i := range sb {
				if sb[i] != vb[i] {
					t.Errorf("%s serial=%v: buffers differ at word %d: %#x vs %#x",
						ds.Name, serial, i, sb[i], vb[i])
					break
				}
			}
		}
	}
}

// TestVectorEquivRowMasked covers the plain coalesced row with a ragged
// tail: the last warp's live lanes form a prefix mask.
func TestVectorEquivRowMasked(t *testing.T) {
	const n, block = 1000, 96
	grid := (n + block - 1) / block
	assertEquiv(t, func(vector bool) equivRun {
		src := cuda.MallocF32("src", n)
		dst := cuda.MallocF32("dst", n)
		for i := range src.Data() {
			src.Data()[i] = float32(i) * 0.25
		}
		cfg := cuda.LaunchConfig{Grid: cuda.D1(grid), Block: cuda.D1(block)}
		var k cuda.Kernel
		if vector {
			k = func(b *cuda.Block) {
				b.RunWarps(func(w *cuda.Warp) {
					gbase := b.LinearIdx()*b.Threads() + w.Base()
					live := w.MaskTo(n - gbase)
					if live == 0 {
						return
					}
					var v [32]float32
					w.LdF32Masked(src, gbase, live, v[:])
					w.Charge(1)
					for mk := live; mk != 0; mk &= mk - 1 {
						l := bits.TrailingZeros32(mk)
						v[l] *= 2
					}
					w.StF32Masked(dst, gbase, live, v[:])
				})
			}
		} else {
			k = func(b *cuda.Block) {
				b.Run(func(th *cuda.Thread) {
					gid := th.GlobalID()
					if gid >= n {
						return
					}
					v := th.LdF32(src, gid)
					th.Charge(1)
					th.StF32(dst, gid, v*2)
				})
			}
		}
		return equivRun{cfg: cfg, k: k, dump: func() []uint32 { return f32bits(dst.Data()) }}
	})
}

// TestVectorEquivPartialWarp uses a block size that is not a multiple of
// the warp size, so the trailing warp has fewer active lanes, and an
// unaligned base offset that crosses segment boundaries.
func TestVectorEquivPartialWarp(t *testing.T) {
	const n, block = 240, 48
	grid := n / block
	assertEquiv(t, func(vector bool) equivRun {
		src := cuda.MallocF32("src", n+1)
		dst := cuda.MallocF32("dst", n)
		for i := range src.Data() {
			src.Data()[i] = float32(i)
		}
		cfg := cuda.LaunchConfig{Grid: cuda.D1(grid), Block: cuda.D1(block)}
		var k cuda.Kernel
		if vector {
			k = func(b *cuda.Block) {
				b.RunWarps(func(w *cuda.Warp) {
					gbase := b.LinearIdx()*b.Threads() + w.Base()
					var v [32]float32
					w.LdF32Masked(src, gbase+1, w.Mask(), v[:])
					w.StF32Masked(dst, gbase, w.Mask(), v[:])
				})
			}
		} else {
			k = func(b *cuda.Block) {
				b.Run(func(th *cuda.Thread) {
					gid := th.GlobalID()
					th.StF32(dst, gid, th.LdF32(src, gid+1))
				})
			}
		}
		return equivRun{cfg: cfg, k: k, dump: func() []uint32 { return f32bits(dst.Data()) }}
	})
}

// TestVectorEquivStridedGather covers the strided load (constant stride per
// lane) and the duplicate-heavy gather, whose transaction count needs full
// address deduplication.
func TestVectorEquivStridedGather(t *testing.T) {
	const count, block, small = 512, 128, 13
	grid := count / block
	assertEquiv(t, func(vector bool) equivRun {
		src := cuda.MallocF32("src", 3*count)
		cols := cuda.MallocI32("cols", 3*count)
		dst := cuda.MallocF32("dst", count)
		for i := range src.Data() {
			src.Data()[i] = float32(i % 97)
			cols.Data()[i] = int32(i % 89)
		}
		cfg := cuda.LaunchConfig{Grid: cuda.D1(grid), Block: cuda.D1(block)}
		var k cuda.Kernel
		if vector {
			k = func(b *cuda.Block) {
				b.RunWarps(func(w *cuda.Warp) {
					gbase := b.LinearIdx()*b.Threads() + w.Base()
					var a, g [32]float32
					var c, idxs [32]int32
					w.LdI32Strided(cols, gbase*3, 3, w.Mask(), c[:])
					for l := 0; l < w.Active(); l++ {
						idxs[l] = int32(((gbase + l) * 7) % small)
					}
					w.LdF32Gather(src, idxs[:], w.Mask(), g[:])
					w.Charge(2)
					for l := 0; l < w.Active(); l++ {
						a[l] = float32(c[l]) + g[l]
					}
					w.StF32Masked(dst, gbase, w.Mask(), a[:])
				})
			}
		} else {
			k = func(b *cuda.Block) {
				b.Run(func(th *cuda.Thread) {
					gid := th.GlobalID()
					a := float32(th.LdI32(cols, gid*3))
					g := th.LdF32(src, (gid*7)%small)
					th.Charge(2)
					th.StF32(dst, gid, a+g)
				})
			}
		}
		return equivRun{cfg: cfg, k: k, dump: func() []uint32 { return f32bits(dst.Data()) }}
	})
}

// TestVectorEquivBroadcast covers the all-lanes-one-address load, through
// the masked broadcast with every live lane in the mask.
func TestVectorEquivBroadcast(t *testing.T) {
	const n, block = 256, 64
	assertEquiv(t, func(vector bool) equivRun {
		src := cuda.MallocF32("src", n)
		dst := cuda.MallocF32("dst", n)
		src.Data()[5] = 42
		cfg := cuda.LaunchConfig{Grid: cuda.D1(n / block), Block: cuda.D1(block)}
		var k cuda.Kernel
		if vector {
			k = func(b *cuda.Block) {
				b.RunWarps(func(w *cuda.Warp) {
					gbase := b.LinearIdx()*b.Threads() + w.Base()
					v := w.LdF32BcastMasked(src, 5, w.Mask())
					var out [32]float32
					for l := 0; l < w.Active(); l++ {
						out[l] = v + float32(gbase+l)
					}
					w.StF32Masked(dst, gbase, w.Mask(), out[:])
				})
			}
		} else {
			k = func(b *cuda.Block) {
				b.Run(func(th *cuda.Thread) {
					gid := th.GlobalID()
					th.StF32(dst, gid, th.LdF32(src, 5)+float32(gid))
				})
			}
		}
		return equivRun{cfg: cfg, k: k, dump: func() []uint32 { return f32bits(dst.Data()) }}
	})
}

// TestVectorEquivAtomics covers the conflicted atomic scatter, including
// the cross-block distinct-address histogram that feeds
// AtomicDistinctAddr.
func TestVectorEquivAtomics(t *testing.T) {
	const count, block = 256, 64
	assertEquiv(t, func(vector bool) equivRun {
		hist := cuda.MallocF32("hist", 7)
		cfg := cuda.LaunchConfig{Grid: cuda.D1(count / block), Block: cuda.D1(block)}
		var k cuda.Kernel
		if vector {
			k = func(b *cuda.Block) {
				b.RunWarps(func(w *cuda.Warp) {
					gbase := b.LinearIdx()*b.Threads() + w.Base()
					var ones [32]float32
					var idxs [32]int32
					for l := 0; l < w.Active(); l++ {
						ones[l] = 1
						idxs[l] = int32((gbase + l) % 7)
					}
					w.AtomicAddF32Scatter(hist, idxs[:], w.Mask(), ones[:])
				})
			}
		} else {
			k = func(b *cuda.Block) {
				b.Run(func(th *cuda.Thread) {
					th.AtomicAddF32(hist, th.GlobalID()%7, 1)
				})
			}
		}
		return equivRun{cfg: cfg, k: k, dump: func() []uint32 { return f32bits(hist.Data()) }}
	})
}

// TestVectorEquivTexture covers texture rows with intra-warp line reuse and
// a second fetch of the same row (all hits, no TexMissInstr).
func TestVectorEquivTexture(t *testing.T) {
	const n, block = 512, 128
	assertEquiv(t, func(vector bool) equivRun {
		src := cuda.MallocF32("src", n)
		dst := cuda.MallocF32("dst", n)
		for i := range src.Data() {
			src.Data()[i] = float32(i) * 1.5
		}
		tex := cuda.BindTexture(src)
		cfg := cuda.LaunchConfig{Grid: cuda.D1(n / block), Block: cuda.D1(block)}
		var k cuda.Kernel
		if vector {
			k = func(b *cuda.Block) {
				b.RunWarps(func(w *cuda.Warp) {
					gbase := b.LinearIdx()*b.Threads() + w.Base()
					var a, c [32]float32
					w.TexF32Masked(tex, gbase, w.Mask(), a[:])
					w.TexF32Masked(tex, gbase, w.Mask(), c[:])
					for l := 0; l < w.Active(); l++ {
						a[l] += c[l]
					}
					w.StF32Masked(dst, gbase, w.Mask(), a[:])
				})
			}
		} else {
			k = func(b *cuda.Block) {
				b.Run(func(th *cuda.Thread) {
					gid := th.GlobalID()
					v := th.TexF32(tex, gid) + th.TexF32(tex, gid)
					th.StF32(dst, gid, v)
				})
			}
		}
		return equivRun{cfg: cfg, k: k, dump: func() []uint32 { return f32bits(dst.Data()) }}
	})
}

// TestVectorEquivSharedMergedStore covers the divergent two-array shared
// store that the scalar path's positional retirement merges into one
// instruction, plus shared row and broadcast reads.
func TestVectorEquivSharedMergedStore(t *testing.T) {
	const n, block = 256, 64
	assertEquiv(t, func(vector bool) equivRun {
		dst := cuda.MallocF32("dst", n)
		cfg := cuda.LaunchConfig{Grid: cuda.D1(n / block), Block: cuda.D1(block), SharedBytes: 8 * block}
		var k cuda.Kernel
		if vector {
			k = func(b *cuda.Block) {
				sf := b.SharedF32(block)
				si := b.SharedI32(block)
				b.RunWarps(func(w *cuda.Warp) {
					var vf [32]float32
					var vi [32]int32
					var even, odd uint32
					for l := 0; l < w.Active(); l++ {
						tid := w.Base() + l
						if tid%2 == 0 {
							vf[l] = float32(tid)
							even |= 1 << uint(l)
						} else {
							vi[l] = int32(tid)
							odd |= 1 << uint(l)
						}
					}
					w.StShF32I32Row(sf, vf[:], even, si, vi[:], odd, w.Base())
				})
				b.Sync()
				b.RunWarps(func(w *cuda.Warp) {
					gbase := b.LinearIdx()*b.Threads() + w.Base()
					var v [32]float32
					var iv [32]int32
					w.LdShF32Masked(sf, w.Base(), w.Mask(), v[:])
					w.LdShI32Masked(si, w.Base(), w.Mask(), iv[:])
					first := w.LdShF32BcastMasked(sf, 0, w.Mask())
					var out [32]float32
					for l := 0; l < w.Active(); l++ {
						out[l] = v[l] + float32(iv[l]) + first
					}
					w.StF32Masked(dst, gbase, w.Mask(), out[:])
				})
			}
		} else {
			k = func(b *cuda.Block) {
				sf := b.SharedF32(block)
				si := b.SharedI32(block)
				b.Run(func(th *cuda.Thread) {
					if th.ID()%2 == 0 {
						th.StShF32(sf, th.ID(), float32(th.ID()))
					} else {
						th.StShI32(si, th.ID(), int32(th.ID()))
					}
				})
				b.Sync()
				b.Run(func(th *cuda.Thread) {
					gid := b.LinearIdx()*b.Threads() + th.ID()
					v := th.LdShF32(sf, th.ID())
					iv := th.LdShI32(si, th.ID())
					first := th.LdShF32(sf, 0)
					th.StF32(dst, gid, v+float32(iv)+first)
				})
			}
		}
		return equivRun{cfg: cfg, k: k, dump: func() []uint32 { return f32bits(dst.Data()) }}
	})
}

// TestVectorEquivI32Ops covers the int32 row/strided/scatter ops driving
// an index permutation, the pattern of the 2-opt position initialisation.
func TestVectorEquivI32Ops(t *testing.T) {
	const n, block = 384, 128
	assertEquiv(t, func(vector bool) equivRun {
		perm := cuda.MallocI32("perm", n)
		pos := cuda.MallocI32("pos", n)
		for i := range perm.Data() {
			perm.Data()[i] = int32((i*211 + 17) % n)
		}
		cfg := cuda.LaunchConfig{Grid: cuda.D1(n / block), Block: cuda.D1(block)}
		var k cuda.Kernel
		if vector {
			k = func(b *cuda.Block) {
				b.RunWarps(func(w *cuda.Warp) {
					gbase := b.LinearIdx()*b.Threads() + w.Base()
					var c, p [32]int32
					w.LdI32Row(perm, gbase, c[:])
					for l := 0; l < w.Active(); l++ {
						p[l] = int32(gbase + l)
					}
					w.StI32Scatter(pos, c[:], w.Mask(), p[:])
					w.Charge(2)
				})
			}
		} else {
			k = func(b *cuda.Block) {
				b.Run(func(th *cuda.Thread) {
					gid := th.GlobalID()
					c := th.LdI32(perm, gid)
					th.StI32(pos, int(c), int32(gid))
					th.Charge(2)
				})
			}
		}
		return equivRun{cfg: cfg, k: k, dump: func() []uint32 { return i32bits(pos.Data()) }}
	})
}
