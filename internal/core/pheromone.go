package core

import (
	"fmt"
	"math"
	"math/bits"

	"antgpu/internal/cuda"
)

// EvaporateKernel lowers every pheromone cell by (1-ρ) — paper eq. (2) —
// with one thread per cell, fully coalesced. Used by the atomic versions
// (1) and (2); the scatter-to-gather versions fold evaporation into their
// per-cell kernels.
func (e *Engine) EvaporateKernel() (*cuda.LaunchResult, error) {
	defer e.span("evaporation")()
	cells := e.n * e.n
	factor := float32(1 - e.P.Rho)
	grid := (cells + choiceBlock - 1) / choiceBlock
	cfg := cuda.LaunchConfig{
		Grid:           cuda.D1(grid),
		Block:          cuda.D1(choiceBlock),
		LatencyOverlap: 4,
	}
	return e.launch(cfg, "evaporate", choiceBlock*2, func(b *cuda.Block) {
		if e.Vector {
			b.RunWarps(func(w *cuda.Warp) {
				gbase := b.LinearIdx()*b.Threads() + w.Base()
				live := w.MaskTo(cells - gbase)
				if live == 0 {
					return
				}
				var v [32]float32
				w.LdF32Masked(e.pher, gbase, live, v[:])
				w.Charge(chargeMulAdd)
				for mk := live; mk != 0; mk &= mk - 1 {
					l := bits.TrailingZeros32(mk)
					v[l] *= factor
				}
				w.StF32Masked(e.pher, gbase, live, v[:])
			})
			return
		}
		b.Run(func(t *cuda.Thread) {
			gid := t.GlobalID()
			if gid >= cells {
				return
			}
			v := t.LdF32(e.pher, gid)
			t.Charge(chargeMulAdd)
			t.StF32(e.pher, gid, v*factor)
		})
	})
}

// depositAtomic launches the atomic deposit kernel (versions 1 and 2): one
// thread per city in an ant's tour, each adding Δτ = 1/C^k onto its edge
// (both symmetric halves) with atomic adds. With staged=true the tour tile
// is first loaded cooperatively into shared memory (version 1); otherwise
// every thread loads its two tour entries from global memory (version 2).
func (e *Engine) depositAtomic(staged bool) (*cuda.LaunchResult, error) {
	defer e.span("deposit")()
	n, m := e.n, e.m
	threads := e.theta
	chunks := (n + threads - 1) / threads
	blocks := m * chunks

	shared := 0
	if staged {
		shared = 4 * (threads + 1)
	}
	name := "deposit-atomic"
	if staged {
		name = "deposit-atomic-shared"
	}
	cfg := cuda.LaunchConfig{
		Grid:        cuda.D1(blocks),
		Block:       cuda.D1(threads),
		SharedBytes: shared,
		// Float atomic adds round differently under different cross-block
		// interleavings; sequential block order keeps the pheromone matrix
		// bit-reproducible run to run (host-side only, timing unaffected).
		SerialBlocks: true,
	}
	kernel := func(b *cuda.Block) {
		ant := b.LinearIdx() / chunks
		chunk := b.LinearIdx() % chunks
		base := ant*e.tourPad + chunk*threads

		var tile []int32
		if staged {
			tile = b.SharedI32(threads + 1)
			boundary := chunk*threads + threads
			if boundary > n {
				boundary = n
			}
			if e.Vector {
				b.RunWarps(func(w *cuda.Warp) {
					var tmp, one [32]int32
					w.LdI32Row(e.tours, base+w.Base(), tmp[:])
					w.StShI32Row(tile, w.Base(), tmp[:])
					if w.ID() == 0 {
						w.LdI32Masked(e.tours, ant*e.tourPad+boundary, 1, one[:])
						w.StShI32Masked(tile, threads, 1, one[:])
					}
				})
			} else {
				b.Run(func(t *cuda.Thread) {
					// Cooperative, coalesced stage of the tour tile; thread 0
					// also fetches the boundary entry.
					t.StShI32(tile, t.ID(), t.LdI32(e.tours, base+t.ID()))
					if t.ID() == 0 {
						t.StShI32(tile, threads, t.LdI32(e.tours, ant*e.tourPad+boundary))
					}
				})
			}
			b.Sync()
		}
		if e.Vector {
			b.RunWarps(func(w *cuda.Warp) {
				mask := w.MaskTo(n - chunk*threads - w.Base())
				if mask == 0 {
					return
				}
				var aV, cV [32]int32
				if staged {
					w.LdShI32Masked(tile, w.Base(), mask, aV[:])
					w.LdShI32Masked(tile, w.Base()+1, mask, cV[:])
				} else {
					w.LdI32Masked(e.tours, base+w.Base(), mask, aV[:])
					w.LdI32Masked(e.tours, base+w.Base()+1, mask, cV[:])
				}
				l := w.LdF32BcastMasked(e.lengths, ant, mask)
				delta := 1 / l
				w.Charge(chargeDiv + 2*chargeIndex)
				var fwd, rev [32]int32
				var dl [32]float32
				for mk := mask; mk != 0; mk &= mk - 1 {
					ln := bits.TrailingZeros32(mk)
					fwd[ln] = aV[ln]*int32(n) + cV[ln]
					rev[ln] = cV[ln]*int32(n) + aV[ln]
					dl[ln] = delta
				}
				w.AtomicAddF32Scatter(e.pher, fwd[:], mask, dl[:])
				w.AtomicAddF32Scatter(e.pher, rev[:], mask, dl[:])
			})
			return
		}
		b.Run(func(t *cuda.Thread) {
			edge := chunk*threads + t.ID()
			if edge >= n {
				return
			}
			var a, c int32
			if staged {
				a = t.LdShI32(tile, t.ID())
				c = t.LdShI32(tile, t.ID()+1)
			} else {
				a = t.LdI32(e.tours, base+t.ID())
				c = t.LdI32(e.tours, base+t.ID()+1)
			}
			l := t.LdF32(e.lengths, ant)
			delta := 1 / l
			t.Charge(chargeDiv + 2*chargeIndex)
			t.AtomicAddF32(e.pher, int(a)*n+int(c), delta)
			t.AtomicAddF32(e.pher, int(c)*n+int(a), delta)
		})
	}
	return e.launch(cfg, name, int64(threads*4), kernel)
}

// scatterPlan describes a scatter-to-gather launch: which cells the grid
// covers and how tours are read.
type scatterPlan struct {
	version   PherVersion
	cells     int  // grid-covered cells (n² or the upper triangle)
	tiled     bool // stage tour tiles in shared memory
	symmetric bool // one thread updates both (i,j) and (j,i)
}

// pherScatterGather launches versions 3–5: one thread per pheromone matrix
// cell (half as many for the symmetric reduction version), each evaporating
// its cell and then scanning every ant's tour for its own edge — the
// scatter-to-gather transformation of the paper, with its Θ(n⁴) load
// volume. To keep the functional simulation tractable at large n the scan
// may sample every antStride-th ant; the engine rescales the meters so the
// reported launch cost is exact in expectation (see rescaleAnts).
func (e *Engine) pherScatterGather(v PherVersion) (*cuda.LaunchResult, error) {
	defer e.span("reduction")()
	n, m := e.n, e.m
	plan := scatterPlan{version: v}
	switch v {
	case PherReduction:
		plan.cells = n * (n + 1) / 2
		plan.tiled = true
		plan.symmetric = true
	case PherScatterGatherTiled:
		plan.cells = n * n
		plan.tiled = true
	case PherScatterGather:
		plan.cells = n * n
	default:
		return nil, fmt.Errorf("core: %v is not a scatter-to-gather version", v)
	}

	threads := e.theta
	blocks := (plan.cells + threads - 1) / threads
	factor := float32(1 - e.P.Rho)

	// Ant-scan sampling keeps the per-block lane work bounded; every ant
	// contributes an identical access pattern, so the meters scale exactly.
	antStride := 1
	if e.SampleBudget > 0 {
		perBlock := int64(threads) * int64(m) * int64(2*(n+1))
		budget := e.SampleBudget / 4
		if budget > 0 && perBlock > budget {
			antStride = int((perBlock + budget - 1) / budget)
			if antStride > m {
				antStride = m
			}
		}
	}
	scanned := 0
	for k := 0; k < m; k += antStride {
		scanned++
	}

	shared := 0
	if plan.tiled {
		shared = 4 * (threads + 1)
	}
	cfg := cuda.LaunchConfig{
		Grid:        cuda.D1(blocks),
		Block:       cuda.D1(threads),
		SharedBytes: shared,
	}
	perBlockOps := int64(threads) * int64(scanned) * int64(2*(n+1))

	kernel := func(b *cuda.Block) {
		// Per-thread registers living across phases.
		ci := b.RegsI32(threads) // cell row
		cj := b.RegsI32(threads) // cell column
		acc := b.RegsF32(threads)

		if e.Vector {
			b.RunWarps(func(w *cuda.Warp) {
				cellBase := b.LinearIdx()*threads + w.Base()
				live := w.MaskTo(plan.cells - cellBase)
				for l := 0; l < w.Active(); l++ {
					if live&(1<<uint(l)) == 0 {
						ci[w.Base()+l] = -1
					}
				}
				if live == 0 {
					return
				}
				var addrs [32]int32
				for mk := live; mk != 0; mk &= mk - 1 {
					l := bits.TrailingZeros32(mk)
					cell := cellBase + l
					var i, j int
					if plan.symmetric {
						i, j = upperTriangle(cell, n)
					} else {
						i, j = cell/n, cell%n
					}
					ci[w.Base()+l], cj[w.Base()+l] = int32(i), int32(j)
					addrs[l] = int32(i*n + j)
				}
				if plan.symmetric {
					w.Charge(8) // index de-linearisation (sqrt etc.)
				} else {
					w.Charge(chargeIndex)
				}
				var v [32]float32
				w.LdF32Gather(e.pher, addrs[:], live, v[:])
				w.Charge(chargeMulAdd)
				for mk := live; mk != 0; mk &= mk - 1 {
					l := bits.TrailingZeros32(mk)
					acc[w.Base()+l] = v[l] * factor
				}
			})
		} else {
			b.Run(func(t *cuda.Thread) {
				cell := b.LinearIdx()*threads + t.ID()
				if cell >= plan.cells {
					ci[t.ID()] = -1
					return
				}
				var i, j int
				if plan.symmetric {
					i, j = upperTriangle(cell, n)
					t.Charge(8) // index de-linearisation (sqrt etc.)
				} else {
					i, j = cell/n, cell%n
					t.Charge(chargeIndex)
				}
				ci[t.ID()], cj[t.ID()] = int32(i), int32(j)
				acc[t.ID()] = 0
				// Evaporation, folded into the per-cell thread as the paper
				// describes ("each cell is independently updated by each thread
				// doing both the pheromone evaporation and the deposit").
				v := t.LdF32(e.pher, i*n+j)
				t.Charge(chargeMulAdd)
				acc[t.ID()] = v * factor
			})
		}

		var tile []int32
		if plan.tiled {
			tile = b.SharedI32(threads + 1)
		}

		for k := 0; k < m; k += antStride {
			ant := k
			// delta is loaded once per ant (a broadcast load).
			for chunk := 0; chunk*threads < n; chunk++ {
				chunk := chunk
				base := ant*e.tourPad + chunk*threads
				limit := n - chunk*threads
				if limit > threads {
					limit = threads
				}
				if plan.tiled {
					boundary := chunk*threads + threads
					if boundary > n {
						boundary = n
					}
					if e.Vector {
						b.RunWarps(func(w *cuda.Warp) {
							var tmp, one [32]int32
							w.LdI32Row(e.tours, base+w.Base(), tmp[:])
							w.StShI32Row(tile, w.Base(), tmp[:])
							if w.ID() == 0 {
								w.LdI32Masked(e.tours, ant*e.tourPad+boundary, 1, one[:])
								w.StShI32Masked(tile, threads, 1, one[:])
							}
						})
					} else {
						b.Run(func(t *cuda.Thread) {
							t.StShI32(tile, t.ID(), t.LdI32(e.tours, base+t.ID()))
							if t.ID() == 0 {
								t.StShI32(tile, threads, t.LdI32(e.tours, ant*e.tourPad+boundary))
							}
						})
					}
					b.Sync()
				}
				if e.Vector {
					b.RunWarps(func(w *cuda.Warp) {
						cellBase := b.LinearIdx()*threads + w.Base()
						live := w.MaskTo(plan.cells - cellBase)
						if live == 0 {
							return
						}
						d := w.LdF32BcastMasked(e.lengths, ant, live)
						delta := 1 / d
						w.Charge(chargeDiv)
						// Every live lane scans the same tour entries, so
						// instead of comparing each entry against every
						// lane's cell, invert: an edge (a, c) hits exactly
						// the lane owning that cell, found in O(1) from the
						// cell enumeration. The accumulation (hits counted
						// per chunk, folded as float32(hits)*delta) is
						// unchanged, so the result is bit-identical.
						var hits [32]int32
						mark := func(cell int) {
							if l := cell - cellBase; l >= 0 && l < 32 && live&(1<<uint(l)) != 0 {
								hits[l]++
							}
						}
						for p := 0; p < limit; p++ {
							var a, c int32
							if plan.tiled {
								a = w.LdShI32BcastMasked(tile, p, live)
								c = w.LdShI32BcastMasked(tile, p+1, live)
							} else {
								a = w.LdI32BcastMasked(e.tours, base+p, live)
								c = w.LdI32BcastMasked(e.tours, base+p+1, live)
							}
							w.Charge(chargeScanEntry)
							if plan.symmetric {
								i, j := int(a), int(c)
								if i > j {
									i, j = j, i
								}
								mark(i*n - i*(i-1)/2 + (j - i))
							} else {
								mark(int(a)*n + int(c))
								if a != c {
									mark(int(c)*n + int(a))
								}
							}
						}
						w.Charge(chargeMulAdd)
						for mk := live; mk != 0; mk &= mk - 1 {
							l := bits.TrailingZeros32(mk)
							acc[w.Base()+l] += float32(hits[l]) * delta
						}
					})
				} else {
					b.Run(func(t *cuda.Thread) {
						if ci[t.ID()] < 0 {
							return
						}
						i, j := ci[t.ID()], cj[t.ID()]
						d := t.LdF32(e.lengths, ant)
						delta := 1 / d
						t.Charge(chargeDiv)
						hits := 0
						for p := 0; p < limit; p++ {
							var a, c int32
							if plan.tiled {
								a = t.LdShI32(tile, p)
								c = t.LdShI32(tile, p+1)
							} else {
								a = t.LdI32(e.tours, base+p)
								c = t.LdI32(e.tours, base+p+1)
							}
							t.Charge(chargeScanEntry)
							if (a == i && c == j) || (a == j && c == i) {
								hits++
							}
						}
						acc[t.ID()] += float32(hits) * delta
						t.Charge(chargeMulAdd)
					})
				}
				if plan.tiled {
					b.Sync()
				}
			}
		}

		if e.Vector {
			b.RunWarps(func(w *cuda.Warp) {
				cellBase := b.LinearIdx()*threads + w.Base()
				live := w.MaskTo(plan.cells - cellBase)
				if live == 0 {
					return
				}
				var out [32]float32
				for mk := live; mk != 0; mk &= mk - 1 {
					l := bits.TrailingZeros32(mk)
					out[l] = acc[w.Base()+l]
				}
				if !plan.symmetric {
					// Cell addresses are the linear cells themselves: a row.
					w.StF32Masked(e.pher, cellBase, live, out[:])
					return
				}
				var up, lo [32]int32
				var loMask uint32
				for mk := live; mk != 0; mk &= mk - 1 {
					l := bits.TrailingZeros32(mk)
					i, j := int(ci[w.Base()+l]), int(cj[w.Base()+l])
					up[l] = int32(i*n + j)
					if i != j {
						lo[l] = int32(j*n + i)
						loMask |= 1 << uint(l)
					}
				}
				w.StF32Scatter(e.pher, up[:], live, out[:])
				w.StF32Scatter(e.pher, lo[:], loMask, out[:])
			})
		} else {
			b.Run(func(t *cuda.Thread) {
				if ci[t.ID()] < 0 {
					return
				}
				i, j := int(ci[t.ID()]), int(cj[t.ID()])
				t.StF32(e.pher, i*n+j, acc[t.ID()])
				if plan.symmetric && i != j {
					t.StF32(e.pher, j*n+i, acc[t.ID()])
				}
			})
		}
	}

	res, err := e.launch(cfg, fmt.Sprintf("pher-scatter-v%d", int(plan.version)), perBlockOps, kernel)
	if err != nil {
		return nil, err
	}
	if antStride > 1 {
		rescaleAnts(res, e.Dev, &cfg, float64(m)/float64(scanned))
		if e.Tracer != nil {
			e.Tracer.AmendLastKernel(res)
		}
	}
	return res, nil
}

// rescaleAnts extrapolates a launch whose kernel scanned only every k-th
// ant: all per-work meters scale by the factor, while the structural warp
// count stays (the same warps did proportionally more work), and the
// simulated time is recomputed.
func rescaleAnts(res *cuda.LaunchResult, dev *cuda.Device, cfg *cuda.LaunchConfig, factor float64) {
	warps := res.Meter.WarpsExecuted
	res.Meter.Scale(factor)
	res.Meter.WarpsExecuted = warps
	res.Seconds, res.Breakdown = cuda.EstimateTime(dev, cfg, &res.Meter)
}

// upperTriangle maps a linear index k in [0, n(n+1)/2) to the (i, j) cell
// of the upper triangle (i <= j) enumerated row by row.
func upperTriangle(k, n int) (int, int) {
	// Row i starts at offset i*n - i*(i-1)/2. Invert with the quadratic
	// formula, then correct for float error.
	fi := math.Floor((float64(2*n+1) - math.Sqrt(float64((2*n+1)*(2*n+1))-8*float64(k))) / 2)
	i := int(fi)
	if i < 0 {
		i = 0
	}
	rowStart := func(i int) int { return i*n - i*(i-1)/2 }
	for i > 0 && rowStart(i) > k {
		i--
	}
	for i < n-1 && rowStart(i+1) <= k {
		i++
	}
	j := i + (k - rowStart(i))
	return i, j
}

// UpdatePheromone runs one full pheromone-update stage with the selected
// version and returns the kernels launched.
func (e *Engine) UpdatePheromone(v PherVersion) (*StageResult, error) {
	defer e.span("update")()
	stage := &StageResult{}
	switch v {
	case PherAtomicShared, PherAtomic:
		evap, err := e.EvaporateKernel()
		if err != nil {
			return nil, err
		}
		stage.add(evap)
		dep, err := e.depositAtomic(v == PherAtomicShared)
		if err != nil {
			return nil, err
		}
		stage.add(dep)
	case PherReduction, PherScatterGatherTiled, PherScatterGather:
		r, err := e.pherScatterGather(v)
		if err != nil {
			return nil, err
		}
		stage.add(r)
	default:
		return nil, fmt.Errorf("core: unknown pheromone version %d", int(v))
	}
	return stage, nil
}
