package core

import (
	"fmt"

	"antgpu/internal/cuda"
	"antgpu/internal/rng"
)

// dataBlockThreads picks the power-of-two block size for the data-parallel
// kernel: one thread per city up to 256 threads, then tiling. An explicit
// EngineOptions.DataBlockThreads overrides the heuristic (ablation studies
// sweep it).
func (e *Engine) dataBlockThreads() int {
	if e.dataThreads > 0 {
		return e.dataThreads
	}
	t := 32
	for t < e.n && t < 256 {
		t *= 2
	}
	if t > e.Dev.MaxThreadsPerBlock {
		t = e.Dev.MaxThreadsPerBlock
	}
	return t
}

// tourDataParallel launches the paper's data-parallel tour construction
// (versions 7 and 8): one thread block per ant, one thread per city within
// a tile. Each thread loads its city's choice value (through the texture
// cache in version 8), draws a random number, multiplies by its register
// tabu bit (no divergent visited check), and the block reduces the products
// in shared memory to pick the next city — a stochastic tile winner, then a
// winner among tiles.
func (e *Engine) tourDataParallel(v TourVersion) (*cuda.LaunchResult, error) {
	n, m := e.n, e.m
	threads := e.dataBlockThreads()
	tiles := (n + threads - 1) / threads
	if tiles > 32 {
		return nil, fmt.Errorf("core: data-parallel kernel supports up to %d cities with %d threads (n = %d)",
			32*threads, threads, n)
	}
	seed := e.P.Seed ^ (0xDA7A + e.iteration*0x9E3779B97F4A7C15)

	var choiceTex *cuda.Texture
	if v == TourDataParallelTexture {
		choiceTex = cuda.BindTexture(e.choice)
	}

	sharedBytes := 4 * (2*threads + 2*tiles + 1)
	// Per step: tiles compute phases over `threads` lanes plus a log2
	// reduction; used only for the sampling-stride estimate.
	per := int64(n) * int64(tiles) * int64(threads) * 12

	cfg := cuda.LaunchConfig{
		Grid:          cuda.D1(m),
		Block:         cuda.D1(threads),
		SharedBytes:   sharedBytes,
		RegsPerThread: 20,
	}

	// vectorKernel is the warp-granular twin of the scalar kernel below. The
	// phase and Sync structure is identical line for line; every warp op
	// documents which scalar access row it replaces. threads is a power of
	// two >= 32, so all warps are full and tile in-lanes form a prefix mask.
	vectorKernel := func(b *cuda.Block) {
		ant := b.LinearIdx()

		vals := b.SharedF32(threads)
		idxs := b.SharedI32(threads)
		tileBestV := b.SharedF32(tiles)
		tileBestI := b.SharedI32(tiles)
		nextSh := b.SharedI32(1)

		tabu := b.RegsI32(threads)
		states := b.RegsU64(threads)
		cur := 0
		lenAcc := float32(0)

		// --- init: seed RNG, mark everything unvisited, place the ant ---
		b.RunWarps(func(w *cuda.Warp) {
			for l := 0; l < w.Active(); l++ {
				tid := w.Base() + l
				states[tid] = rng.Seed(seed, uint64(ant)<<16|uint64(tid)).State()
				tabu[tid] = -1
			}
			if w.ID() != 0 {
				w.Charge(3)
				return
			}
			r := rng.NextF32Raw(states, 0)
			c := int32(r * float32(n))
			if c >= int32(n) {
				c = int32(n) - 1
			}
			// Lane 0 is the slowest lane: 3 (init) + LCG draw + 3 (placement).
			w.Charge(3 + rng.DeviceLCGCharge + 3)
			one := [1]int32{c}
			w.StShI32Masked(nextSh, 0, 1, one[:])
			w.StI32Masked(e.tours, ant*e.tourPad+0, 1, one[:])
		})
		b.Sync()
		b.RunWarps(func(w *cuda.Warp) {
			c := int(w.LdShI32Bcast(nextSh, 0))
			target := c % threads
			if target >= w.Base() && target < w.Base()+w.Active() {
				tabu[target] &^= 1 << uint(c/threads)
				w.Charge(chargeBitTabu + chargeCompare)
			} else {
				w.Charge(chargeCompare)
			}
			if w.ID() == 0 {
				cur = c
			}
		})
		b.Sync()

		// --- construction steps ------------------------------------------
		for step := 1; step < n; step++ {
			for tile := 0; tile < tiles; tile++ {
				tile := tile
				// Tile phase: value = choice * random * tabu-bit. In-lanes
				// (j < n) issue the choice load then two shared stores;
				// out-lanes issue their two shared stores one position
				// earlier, so the middle position merges in-lane vals[] and
				// out-lane idxs[] stores into one instruction (the scalar
				// path's positional retirement does the same merge).
				b.RunWarps(func(w *cuda.Warp) {
					jbase := tile*threads + w.Base()
					inMask := w.MaskTo(n - jbase)
					outMask := w.Mask() &^ inMask
					var wv, valsV [32]float32
					var idxV [32]int32
					if inMask != 0 {
						if choiceTex != nil {
							w.TexF32Masked(choiceTex, cur*n+jbase, inMask, wv[:])
						} else {
							w.LdF32Masked(e.choice, cur*n+jbase, inMask, wv[:])
						}
					}
					for l := 0; l < w.Active(); l++ {
						tid := w.Base() + l
						if inMask&(1<<uint(l)) != 0 {
							r := rng.NextF32Raw(states, tid) + 1e-6
							tb := float32((tabu[tid] >> uint(tile)) & 1)
							// + (tb-1) sinks visited lanes to -1 so the max
							// reduction can never crown a tabu city when every
							// unvisited value underflows to zero; for tb = 1
							// it adds +0.0 and leaves the value bit-identical.
							valsV[l] = wv[l]*r*tb + (tb - 1)
						} else {
							valsV[l] = -1
						}
						idxV[l] = int32(jbase + l)
					}
					if inMask != 0 {
						w.Charge(rng.DeviceLCGCharge + 2*chargeMulAdd + chargeBitTabu + chargeIndex)
					}
					w.StShF32Masked(vals, w.Base(), outMask, valsV[:])
					w.StShF32I32Row(vals, valsV[:], inMask, idxs, idxV[:], outMask, w.Base())
					w.StShI32Masked(idxs, w.Base(), inMask, idxV[:])
				})
				b.Sync()
				// Shared-memory max-reduction for the tile winner.
				b.ArgMaxSh(vals, idxs, chargeCompare)
				b.RunWarps(func(w *cuda.Warp) {
					if w.ID() != 0 {
						return
					}
					vArr := [1]float32{w.LdShF32BcastMasked(vals, 0, 1)}
					w.StShF32Masked(tileBestV, tile, 1, vArr[:])
					iArr := [1]int32{w.LdShI32BcastMasked(idxs, 0, 1)}
					w.StShI32Masked(tileBestI, tile, 1, iArr[:])
				})
				b.Sync()
			}
			// Winner among the tile winners, then bookkeeping. Lane 0's
			// improving branch issues an extra tileBestI load, so the shared
			// instruction sequence is data-dependent exactly as in the
			// scalar path.
			b.RunWarps(func(w *cuda.Warp) {
				if w.ID() != 0 {
					return
				}
				bestV := float32(-1)
				best := int32(-1)
				for tl := 0; tl < tiles; tl++ {
					v := w.LdShF32BcastMasked(tileBestV, tl, 1)
					if v > bestV {
						bestV = v
						best = w.LdShI32BcastMasked(tileBestI, tl, 1)
					}
				}
				w.Charge(float64(tiles) * chargeCompare)
				if best < 0 {
					b.Failf("data-parallel selection found no city for ant %d at step %d", ant, step)
				}
				bArr := [1]int32{best}
				w.StShI32Masked(nextSh, 0, 1, bArr[:])
			})
			b.Sync()
			b.RunWarps(func(w *cuda.Warp) {
				next := int(w.LdShI32Bcast(nextSh, 0))
				target := next % threads
				charge := float64(chargeCompare)
				if target >= w.Base() && target < w.Base()+w.Active() {
					tabu[target] &^= 1 << uint(next/threads)
					if c := float64(chargeCompare + chargeBitTabu); c > charge {
						charge = c
					}
				}
				if w.ID() == 0 {
					c := float64(chargeCompare + chargeMulAdd)
					if target == 0 {
						c += chargeBitTabu
					}
					if c > charge {
						charge = c
					}
					d := w.LdF32BcastMasked(e.dist, cur*n+next, 1)
					lenAcc += d
					cur = next
					nArr := [1]int32{int32(next)}
					w.StI32Masked(e.tours, ant*e.tourPad+step, 1, nArr[:])
				}
				w.Charge(charge)
			})
			b.Sync()
		}

		// --- finish -------------------------------------------------------
		b.RunWarps(func(w *cuda.Warp) {
			if w.ID() != 0 {
				return
			}
			first := w.LdI32BcastMasked(e.tours, ant*e.tourPad+0, 1)
			lenAcc += w.LdF32BcastMasked(e.dist, cur*n+int(first), 1)
			fArr := [1]int32{first}
			for p := n; p < e.tourPad; p++ {
				w.StI32Masked(e.tours, ant*e.tourPad+p, 1, fArr[:])
			}
			lArr := [1]float32{lenAcc}
			w.StF32Masked(e.lengths, ant, 1, lArr[:])
			w.Charge(4)
		})
	}

	kernel := func(b *cuda.Block) {
		ant := b.LinearIdx()

		vals := b.SharedF32(threads)
		idxs := b.SharedI32(threads)
		tileBestV := b.SharedF32(tiles)
		tileBestI := b.SharedI32(tiles)
		nextSh := b.SharedI32(1)

		// Per-thread registers: the tabu bitmask (bit t = this thread's
		// city on tile t, 1 = unvisited) and the RNG state.
		tabu := b.RegsI32(threads)
		states := b.RegsU64(threads)
		cur := 0
		lenAcc := float32(0)

		// --- init: seed RNG, mark everything unvisited, place the ant ---
		b.Run(func(t *cuda.Thread) {
			states[t.ID()] = rng.Seed(seed, uint64(ant)<<16|uint64(t.ID())).State()
			tabu[t.ID()] = -1 // all bits set
			t.Charge(3)
			if t.ID() == 0 {
				r := rng.NextF32(t, states, 0)
				c := int32(r * float32(n))
				if c >= int32(n) {
					c = int32(n) - 1
				}
				t.Charge(3)
				t.StShI32(nextSh, 0, c)
				t.StI32(e.tours, ant*e.tourPad+0, c)
			}
		})
		b.Sync()
		b.Run(func(t *cuda.Thread) {
			c := int(t.LdShI32(nextSh, 0))
			if c%threads == t.ID() {
				tabu[t.ID()] &^= 1 << uint(c/threads)
				t.Charge(chargeBitTabu)
			}
			if t.ID() == 0 {
				cur = c
			}
			t.Charge(chargeCompare)
		})
		b.Sync()

		// --- construction steps ------------------------------------------
		for step := 1; step < n; step++ {
			for tile := 0; tile < tiles; tile++ {
				tile := tile
				// Tile phase: value = choice * random * tabu-bit. No
				// conditional on visited status — the multiply by 0/1 is
				// the paper's divergence-avoidance trick. The + (tb-1) term
				// sinks visited lanes to -1 (for tb = 1 it adds +0.0 and
				// leaves the value bit-identical), so the max reduction can
				// never crown a tabu city when every unvisited choice value
				// underflows to zero.
				b.Run(func(t *cuda.Thread) {
					j := tile*threads + t.ID()
					val := float32(-1)
					if j < n {
						var w float32
						if choiceTex != nil {
							w = t.TexF32(choiceTex, cur*n+j)
						} else {
							w = t.LdF32(e.choice, cur*n+j)
						}
						r := rng.NextF32(t, states, t.ID()) + 1e-6
						tb := float32((tabu[t.ID()] >> uint(tile)) & 1)
						val = w*r*tb + (tb - 1)
						t.Charge(2*chargeMulAdd + chargeBitTabu + chargeIndex)
					}
					t.StShF32(vals, t.ID(), val)
					t.StShI32(idxs, t.ID(), int32(j))
				})
				b.Sync()
				// Shared-memory max-reduction for the tile winner.
				for s := threads / 2; s > 0; s /= 2 {
					s := s
					b.Run(func(t *cuda.Thread) {
						if t.ID() < s {
							a := t.LdShF32(vals, t.ID())
							c := t.LdShF32(vals, t.ID()+s)
							t.Charge(chargeCompare)
							if c > a {
								t.StShF32(vals, t.ID(), c)
								t.StShI32(idxs, t.ID(), t.LdShI32(idxs, t.ID()+s))
							}
						}
					})
					b.Sync()
				}
				b.Run(func(t *cuda.Thread) {
					if t.ID() == 0 {
						t.StShF32(tileBestV, tile, t.LdShF32(vals, 0))
						t.StShI32(tileBestI, tile, t.LdShI32(idxs, 0))
					}
				})
				b.Sync()
			}
			// Winner among the tile winners, then bookkeeping.
			b.Run(func(t *cuda.Thread) {
				if t.ID() == 0 {
					bestV := float32(-1)
					best := int32(-1)
					for tl := 0; tl < tiles; tl++ {
						v := t.LdShF32(tileBestV, tl)
						t.Charge(chargeCompare)
						if v > bestV {
							bestV = v
							best = t.LdShI32(tileBestI, tl)
						}
					}
					if best < 0 {
						b.Failf("data-parallel selection found no city for ant %d at step %d", ant, step)
					}
					t.StShI32(nextSh, 0, best)
				}
			})
			b.Sync()
			b.Run(func(t *cuda.Thread) {
				next := int(t.LdShI32(nextSh, 0))
				if next%threads == t.ID() {
					tabu[t.ID()] &^= 1 << uint(next/threads)
					t.Charge(chargeBitTabu)
				}
				t.Charge(chargeCompare)
				if t.ID() == 0 {
					d := t.LdF32(e.dist, cur*n+next)
					lenAcc += d
					cur = next
					t.StI32(e.tours, ant*e.tourPad+step, int32(next))
					t.Charge(chargeMulAdd)
				}
			})
			b.Sync()
		}

		// --- finish -------------------------------------------------------
		b.Run(func(t *cuda.Thread) {
			if t.ID() != 0 {
				return
			}
			first := t.LdI32(e.tours, ant*e.tourPad+0)
			lenAcc += t.LdF32(e.dist, cur*n+int(first))
			for p := n; p < e.tourPad; p++ {
				t.StI32(e.tours, ant*e.tourPad+p, first)
			}
			t.StF32(e.lengths, ant, lenAcc)
			t.Charge(4)
		})
	}

	if e.Vector {
		kernel = vectorKernel
	}
	return e.launch(cfg, fmt.Sprintf("tour-data-v%d", int(v)), per, kernel)
}
