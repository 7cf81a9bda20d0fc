package core

import (
	"math/bits"

	"antgpu/internal/cuda"
)

// GPU 2-opt local search: one thread block per ant, following the standard
// GPU formulation of 2-opt that post-dates the paper (and that the AS +
// local-search configurations of ACOTSP motivate): every round, the
// block's threads evaluate the nearest-neighbour candidate moves of their
// city slice in parallel, a shared-memory argmax reduction selects the
// best improving move, and the threads cooperatively reverse the shorter
// broken segment. Rounds repeat until no candidate move improves the tour.
//
// Unlike the CPU's first-improvement scheme, this is best-improvement per
// round — the natural data-parallel variant; both converge to a 2-opt
// local optimum over the same candidate set.

// LocalSearchKernel improves every ant's tour in place and refreshes the
// device length buffer. It must run after an unsampled construction stage.
func (e *Engine) LocalSearchKernel() (*StageResult, error) {
	defer e.Tracer.Phase("2-opt")()
	if e.posBuf == nil {
		var err error
		if e.posBuf, err = e.Dev.MallocI32("positions", e.m*e.n); err != nil {
			return nil, err
		}
	}
	n, m, nn := e.n, e.m, e.nn
	threads := 128
	if threads > e.Dev.MaxThreadsPerBlock {
		threads = e.Dev.MaxThreadsPerBlock
	}
	// Safety bound on rounds: a 2-opt move strictly shortens an integer
	// tour length, so termination is guaranteed; the cap only guards
	// against a pathological move count in one kernel.
	maxRounds := 4 * n

	cfg := cuda.LaunchConfig{
		Grid:          cuda.D1(m),
		Block:         cuda.D1(threads),
		SharedBytes:   4 * (2*threads + 8),
		RegsPerThread: 28,
	}

	kernel := func(b *cuda.Block) {
		ant := b.LinearIdx()
		base := ant * e.tourPad
		posBase := ant * n

		gains := b.SharedF32(threads) // per-thread best gain
		moves := b.SharedI32(threads) // per-thread best move: encoded position pair
		bestSh := b.SharedI32(4)      // selected move: i, j (positions), gain lo/hi unused
		flag := b.SharedI32(1)        // improvement found this round

		// Initialise the position index in parallel.
		chunk := (n + threads - 1) / threads
		if e.Vector {
			b.RunWarps(func(w *cuda.Warp) {
				for k := 0; k < chunk; k++ {
					// Lanes with tid*chunk+k < n form a prefix (iteration
					// counts are non-increasing in tid).
					cnt := 0
					if k < n {
						cnt = (n-1-k)/chunk + 1 - w.Base()
					}
					mask := w.MaskTo(cnt)
					if mask == 0 {
						break
					}
					var cV, pV, sV [32]int32
					w.LdI32Strided(e.tours, base+w.Base()*chunk+k, chunk, mask, cV[:])
					for mk := mask; mk != 0; mk &= mk - 1 {
						l := bits.TrailingZeros32(mk)
						pV[l] = int32(posBase) + cV[l]
						sV[l] = int32((w.Base()+l)*chunk + k)
					}
					w.StI32Scatter(e.posBuf, pV[:], mask, sV[:])
					w.Charge(chargeIndex)
				}
			})
		} else {
			b.Run(func(t *cuda.Thread) {
				for k := 0; k < chunk; k++ {
					p := t.ID()*chunk + k
					if p >= n {
						break
					}
					c := t.LdI32(e.tours, base+p)
					t.StI32(e.posBuf, posBase+int(c), int32(p))
					t.Charge(chargeIndex)
				}
			})
		}
		b.Sync()

		succPos := func(p int) int {
			if p+1 == n {
				return 0
			}
			return p + 1
		}

		for round := 0; round < maxRounds; round++ {
			// Phase 1: every thread scans its cities' candidate moves for
			// the best gain. Move encoding: positions (pi, pj) of the two
			// broken edges' first endpoints, packed as pi*n+pj.
			//
			// This phase stays on the scalar path even in vector mode: the
			// candidate loop has a data-dependent break per lane, so the
			// access pattern is not expressible as warp rows (see the
			// warp-vector fast-path rules in internal/cuda/warp.go).
			b.Run(func(t *cuda.Thread) {
				// Distances are integers (stored as float32), so any true
				// improvement gains at least 1; the 0.5 threshold keeps
				// float rounding from producing zero-gain move cycles.
				bestGain := float32(0.5)
				bestMove := int32(-1)
				for k := 0; k < chunk; k++ {
					ci := t.ID()*chunk + k
					if ci >= n {
						break
					}
					pi := int(t.LdI32(e.posBuf, posBase+ci))
					si := int(t.LdI32(e.tours, base+succPos(pi)))
					dI := t.LdF32(e.dist, ci*n+si)
					t.Charge(chargeIndex + chargeMulAdd)
					for h := 0; h < nn; h++ {
						cj := int(t.LdI32(e.nnList, ci*nn+h))
						dC := t.LdF32(e.dist, ci*n+cj)
						t.Charge(chargeCompare)
						if dC >= dI {
							break // sorted candidates: no closer one left
						}
						pj := int(t.LdI32(e.posBuf, posBase+cj))
						sj := int(t.LdI32(e.tours, base+succPos(pj)))
						if sj == ci || cj == si {
							continue
						}
						gain := dI + t.LdF32(e.dist, cj*n+sj) -
							dC - t.LdF32(e.dist, si*n+sj)
						t.Charge(4 * chargeMulAdd)
						if gain > bestGain {
							bestGain = gain
							bestMove = int32(pi)*int32(n) + int32(pj)
						}
					}
				}
				t.StShF32(gains, t.ID(), bestGain)
				t.StShI32(moves, t.ID(), bestMove)
			})
			b.Sync()

			// Phase 2: argmax reduction over the per-thread bests.
			if e.Vector {
				b.ArgMaxSh(gains, moves, chargeCompare)
			} else {
				for s := threads / 2; s > 0; s /= 2 {
					s := s
					b.Run(func(t *cuda.Thread) {
						if t.ID() < s {
							a := t.LdShF32(gains, t.ID())
							c := t.LdShF32(gains, t.ID()+s)
							t.Charge(chargeCompare)
							if c > a {
								t.StShF32(gains, t.ID(), c)
								t.StShI32(moves, t.ID(), t.LdShI32(moves, t.ID()+s))
							}
						}
					})
					b.Sync()
				}
			}
			if e.Vector {
				b.RunWarps(func(w *cuda.Warp) {
					if w.ID() != 0 {
						return
					}
					var s0, s1 [1]int32
					if mv := w.LdShI32BcastMasked(moves, 0, 1); mv >= 0 {
						pi := int(mv) / n
						pj := int(mv) % n
						i := succPos(pi)
						inner := pj - i
						if inner < 0 {
							inner += n
						}
						inner++
						if inner <= n-inner {
							s0[0], s1[0] = int32(i), int32(inner)
						} else {
							s0[0], s1[0] = int32(succPos(pj)), int32(n-inner)
						}
						w.StShI32Masked(bestSh, 0, 1, s0[:])
						w.StShI32Masked(bestSh, 1, 1, s1[:])
						s0[0] = 1
						w.StShI32Masked(flag, 0, 1, s0[:])
					} else {
						s0[0] = 0
						w.StShI32Masked(flag, 0, 1, s0[:])
					}
					w.Charge(8)
				})
			} else {
				b.Run(func(t *cuda.Thread) {
					if t.ID() != 0 {
						return
					}
					if mv := t.LdShI32(moves, 0); mv >= 0 {
						pi := int(mv) / n
						pj := int(mv) % n
						// Reverse segment succ(pi)..pj, or its complement if
						// shorter.
						i := succPos(pi)
						inner := pj - i
						if inner < 0 {
							inner += n
						}
						inner++
						if inner <= n-inner {
							t.StShI32(bestSh, 0, int32(i))
							t.StShI32(bestSh, 1, int32(inner))
						} else {
							t.StShI32(bestSh, 0, int32(succPos(pj)))
							t.StShI32(bestSh, 1, int32(n-inner))
						}
						t.StShI32(flag, 0, 1)
					} else {
						t.StShI32(flag, 0, 0)
					}
					t.Charge(8)
				})
			}
			b.Sync()

			improved := flag[0] == 1
			if !improved {
				break
			}

			// Phase 3: cooperative reversal — thread k swaps pair k,
			// k+threads, ... of the segment. Distinct swap indices touch
			// distinct tour positions and distinct cities, so the vector
			// path's per-iteration ordering matches the scalar per-lane
			// ordering bit for bit.
			if e.Vector {
				b.RunWarps(func(w *cuda.Warp) {
					start := int(w.LdShI32Bcast(bestSh, 0))
					length := int(w.LdShI32Bcast(bestSh, 1))
					half := length / 2
					for it := 0; ; it++ {
						mask := w.MaskTo(half - it*threads - w.Base())
						if mask == 0 {
							break
						}
						var paI, pbI, caV, cbV, pcaI, pcbI, paV, pbV [32]int32
						for mk := mask; mk != 0; mk &= mk - 1 {
							l := bits.TrailingZeros32(mk)
							k := it*threads + w.Base() + l
							pa := (start + k) % n
							pb := (start + length - 1 - k) % n
							paI[l], pbI[l] = int32(base+pa), int32(base+pb)
							paV[l], pbV[l] = int32(pa), int32(pb)
						}
						w.LdI32Gather(e.tours, paI[:], mask, caV[:])
						w.LdI32Gather(e.tours, pbI[:], mask, cbV[:])
						w.StI32Scatter(e.tours, paI[:], mask, cbV[:])
						w.StI32Scatter(e.tours, pbI[:], mask, caV[:])
						for mk := mask; mk != 0; mk &= mk - 1 {
							l := bits.TrailingZeros32(mk)
							pcaI[l] = int32(posBase) + caV[l]
							pcbI[l] = int32(posBase) + cbV[l]
						}
						w.StI32Scatter(e.posBuf, pcaI[:], mask, pbV[:])
						w.StI32Scatter(e.posBuf, pcbI[:], mask, paV[:])
						w.Charge(2 * chargeIndex)
					}
				})
			} else {
				b.Run(func(t *cuda.Thread) {
					start := int(t.LdShI32(bestSh, 0))
					length := int(t.LdShI32(bestSh, 1))
					for k := t.ID(); k < length/2; k += threads {
						pa := (start + k) % n
						pb := (start + length - 1 - k) % n
						ca := t.LdI32(e.tours, base+pa)
						cb := t.LdI32(e.tours, base+pb)
						t.StI32(e.tours, base+pa, cb)
						t.StI32(e.tours, base+pb, ca)
						t.StI32(e.posBuf, posBase+int(ca), int32(pb))
						t.StI32(e.posBuf, posBase+int(cb), int32(pa))
						t.Charge(2 * chargeIndex)
					}
				})
			}
			b.Sync()
		}

		// Recompute the tour length in parallel: each thread sums a slice
		// of edges, then a reduction adds them up. Also refresh the padded
		// wrap entries, which the reversal may have bypassed.
		if e.Vector {
			b.RunWarps(func(w *cuda.Warp) {
				// Lane l runs iters[l] edge iterations then stores its sum
				// one stream position later, so a lane's shared store lands
				// at the same position as the remaining lanes' loads — the
				// scalar path retires them as separate per-position groups,
				// which the masked ops below reproduce.
				var sums [32]float32
				var iters [32]int
				for l := 0; l < w.Active(); l++ {
					it := n - (w.Base()+l)*chunk
					if it < 0 {
						it = 0
					}
					if it > chunk {
						it = chunk
					}
					iters[l] = it
				}
				for k := 0; ; k++ {
					var mask, stM uint32
					for l := 0; l < w.Active(); l++ {
						if iters[l] > k {
							mask |= 1 << uint(l)
						} else if iters[l] == k {
							stM |= 1 << uint(l)
						}
					}
					w.StShF32Masked(gains, w.Base(), stM, sums[:])
					if mask == 0 {
						break
					}
					var aV, cV, sI, dI [32]int32
					var dV [32]float32
					w.LdI32Strided(e.tours, base+w.Base()*chunk+k, chunk, mask, aV[:])
					for mk := mask; mk != 0; mk &= mk - 1 {
						l := bits.TrailingZeros32(mk)
						sI[l] = int32(base + succPos((w.Base()+l)*chunk+k))
					}
					w.LdI32Gather(e.tours, sI[:], mask, cV[:])
					for mk := mask; mk != 0; mk &= mk - 1 {
						l := bits.TrailingZeros32(mk)
						dI[l] = aV[l]*int32(n) + cV[l]
					}
					w.LdF32Gather(e.dist, dI[:], mask, dV[:])
					for mk := mask; mk != 0; mk &= mk - 1 {
						l := bits.TrailingZeros32(mk)
						sums[l] += dV[l]
					}
					w.Charge(chargeMulAdd)
				}
			})
		} else {
			b.Run(func(t *cuda.Thread) {
				sum := float32(0)
				for k := 0; k < chunk; k++ {
					p := t.ID()*chunk + k
					if p >= n {
						break
					}
					a := t.LdI32(e.tours, base+p)
					c := t.LdI32(e.tours, base+succPos(p))
					sum += t.LdF32(e.dist, int(a)*n+int(c))
					t.Charge(chargeMulAdd)
				}
				t.StShF32(gains, t.ID(), sum)
			})
		}
		b.Sync()
		for s := threads / 2; s > 0; s /= 2 {
			s := s
			if e.Vector {
				b.RunWarps(func(w *cuda.Warp) {
					part := w.MaskTo(s - w.Base())
					if part == 0 {
						return
					}
					var aV, cV [32]float32
					w.LdShF32Masked(gains, w.Base(), part, aV[:])
					w.LdShF32Masked(gains, w.Base()+s, part, cV[:])
					for mk := part; mk != 0; mk &= mk - 1 {
						l := bits.TrailingZeros32(mk)
						aV[l] += cV[l]
					}
					w.StShF32Masked(gains, w.Base(), part, aV[:])
					w.Charge(chargeMulAdd)
				})
			} else {
				b.Run(func(t *cuda.Thread) {
					if t.ID() < s {
						v := t.LdShF32(gains, t.ID()) + t.LdShF32(gains, t.ID()+s)
						t.StShF32(gains, t.ID(), v)
						t.Charge(chargeMulAdd)
					}
				})
			}
			b.Sync()
		}
		if e.Vector {
			b.RunWarps(func(w *cuda.Warp) {
				if w.ID() != 0 {
					return
				}
				first := w.LdI32BcastMasked(e.tours, base+0, 1)
				fArr := [1]int32{first}
				for p := n; p < e.tourPad; p++ {
					w.StI32Masked(e.tours, base+p, 1, fArr[:])
				}
				lArr := [1]float32{w.LdShF32BcastMasked(gains, 0, 1)}
				w.StF32Masked(e.lengths, ant, 1, lArr[:])
			})
		} else {
			b.Run(func(t *cuda.Thread) {
				if t.ID() != 0 {
					return
				}
				first := t.LdI32(e.tours, base+0)
				for p := n; p < e.tourPad; p++ {
					t.StI32(e.tours, base+p, first)
				}
				t.StF32(e.lengths, ant, t.LdShF32(gains, 0))
			})
		}
	}

	res, err := e.launch(cfg, "twoopt", int64(n*nn*4), kernel)
	if err != nil {
		return nil, err
	}
	stage := &StageResult{}
	stage.add(res)
	return stage, nil
}

// IterateWithLocalSearch runs construction, 2-opt local search on every
// ant, best tracking and the pheromone update — the AS + local search
// configuration of ACOTSP.
func (e *Engine) IterateWithLocalSearch(tv TourVersion, pv PherVersion) (*IterationResult, error) {
	return e.iterate(func() (*StageResult, error) {
		construct, err := e.ConstructTours(tv)
		if err != nil {
			return nil, err
		}
		ls, err := e.LocalSearchKernel()
		if err != nil {
			return nil, err
		}
		construct.Kernels = append(construct.Kernels, ls.Kernels...)
		return construct, nil
	}, func(int) (*StageResult, error) { return e.UpdatePheromone(pv) })
}
