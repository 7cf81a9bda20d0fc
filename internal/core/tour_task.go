package core

import (
	"fmt"

	"antgpu/internal/cuda"
)

// tabuLayout describes where and how the task-based kernels keep the
// visited list.
type tabuLayout int

const (
	tabuGlobal tabuLayout = iota // one int32 per city in device memory
	tabuShByte                   // one byte per city in shared memory
	tabuShBits                   // one bit per city in shared memory
)

func (l tabuLayout) String() string {
	switch l {
	case tabuGlobal:
		return "global"
	case tabuShByte:
		return "shared-byte"
	case tabuShBits:
		return "shared-bitwise"
	}
	return fmt.Sprintf("tabuLayout(%d)", int(l))
}

// taskPlan is the launch geometry of a task-based tour kernel.
type taskPlan struct {
	threads     int
	layout      tabuLayout
	sharedBytes int
}

// taskBlockPlan picks the thread-block size and tabu layout for a
// task-based version, preferring the word layout (cheap accesses) at a
// reasonable block size and degrading to the bitwise layout — and finally
// to smaller blocks — exactly the way the paper describes for the biggest
// benchmarks ("the tabu list can only be located on a bit basis in shared
// memory, which introduces an extra overhead" and hurts occupancy).
func (e *Engine) taskBlockPlan(v TourVersion) taskPlan {
	const defaultThreads = 128
	if v != TourNNShared && v != TourNNSharedTexture {
		return taskPlan{threads: defaultThreads, layout: tabuGlobal}
	}
	budget := e.Dev.SharedMemPerBlock() * 9 / 10
	for _, threads := range []int{128, 64} {
		if bytes := threads * e.n; bytes <= budget {
			return taskPlan{threads: threads, layout: tabuShByte, sharedBytes: bytes}
		}
	}
	for _, threads := range []int{128, 64, 32} {
		words := (e.n + 31) / 32
		if bytes := threads * words * 4; bytes <= budget {
			return taskPlan{threads: threads, layout: tabuShBits, sharedBytes: bytes}
		}
	}
	// Pathological n; one warp per block always fits a bitwise list.
	return taskPlan{threads: 32, layout: tabuShBits, sharedBytes: 32 * ((e.n + 31) / 32) * 4}
}

// tourTask launches the task-based tour construction (versions 1–6): one
// thread per ant. The version flags select heuristic recomputation vs the
// choice matrix, library vs device RNG vs texture randoms, and the tabu
// layout.
func (e *Engine) tourTask(v TourVersion) (*cuda.LaunchResult, error) {
	n, m, nn := e.n, e.m, e.nn
	plan := e.taskBlockPlan(v)
	blocks := (m + plan.threads - 1) / plan.threads

	useNN := v.UsesNNList()
	libRNG := v == TourBaseline || v == TourChoiceKernel
	recompute := v == TourBaseline
	texRand := v == TourNNSharedTexture

	var randTex *cuda.Texture
	if texRand {
		randTex = cuda.BindTexture(e.randoms)
	}

	regs := 24
	if useNN {
		regs = 48 // the per-thread probability scratch of the NN roulette
	}

	// Step-prefix sampling: the fully probabilistic versions cost the same
	// per construction step (a Θ(n) scan), so when a budget is set the
	// kernel may execute only a prefix of the steps and the meters are
	// scaled to the full tour. NN-list versions are exempt: their fall-back
	// frequency rises towards the end of the tour, so a prefix would bias
	// the meters, and they are cheap enough to run fully.
	stepsToRun := n - 1
	stepScale := 1.0
	if e.SampleBudget > 0 && !useNN {
		perStep := int64(plan.threads) * int64(3*n)
		maxSteps := e.SampleBudget / perStep
		if maxSteps < 16 {
			maxSteps = 16
		}
		if int64(stepsToRun) > maxSteps {
			stepsToRun = int(maxSteps)
			stepScale = float64(n-1) / float64(stepsToRun)
		}
	}

	// Per-block lane-op estimate for the block-sampling budget: each ant
	// performs steps of either a 2n-access scan or a 2nn-access scan.
	per := int64(plan.threads) * int64(stepsToRun) * int64(2*nn+8)
	if !useNN {
		per = int64(plan.threads) * int64(stepsToRun) * int64(3*n)
	}

	cfg := cuda.LaunchConfig{
		Grid:          cuda.D1(blocks),
		Block:         cuda.D1(plan.threads),
		SharedBytes:   plan.sharedBytes,
		RegsPerThread: regs,
		WorkScale:     stepScale,
		// The task-based scan is a load → branch → load chain: exactly the
		// dependent, unpredictable access pattern the paper blames.
		DependentMemory: true,
	}

	kernel := func(b *cuda.Block) {
		threads := b.Threads()
		base := b.LinearIdx() * threads

		// Per-thread registers.
		cur := b.RegsI32(threads)
		lenAcc := b.RegsF32(threads)
		probs := make([][]float32, 0)
		if useNN {
			for i := 0; i < threads; i++ {
				probs = append(probs, make([]float32, nn))
			}
		}
		sums := b.RegsF32(threads)

		// Shared tabu, if this version keeps it on-chip. The byte layout
		// packs four cities per 32-bit word; both layouts are lane-
		// interleaved so a uniform city index is conflict-free.
		var tabuSh []int32
		words := (n + 31) / 32
		byteWords := (threads*n + 3) / 4
		switch plan.layout {
		case tabuShByte:
			tabuSh = b.SharedI32(byteWords)
		case tabuShBits:
			tabuSh = b.SharedI32(threads * words)
		}

		ant := func(t *cuda.Thread) int {
			a := base + t.ID()
			if a >= m {
				return -1
			}
			return a
		}

		// visited/setVisited hide the tabu layout. City j of the thread's
		// ant; shared layouts are lane-interleaved (index*threads + tid) so
		// uniform j is bank-conflict-free.
		visited := func(t *cuda.Thread, a, j int) bool {
			switch plan.layout {
			case tabuShByte:
				t.Charge(chargeIndex + 1)
				bi := j*threads + t.ID()
				w := t.LdShI32(tabuSh, bi/4)
				return w&(0xFF<<uint(8*(bi%4))) != 0
			case tabuShBits:
				t.Charge(chargeBitTabu)
				w := t.LdShI32(tabuSh, (j/32)*threads+t.ID())
				return w&(1<<uint(j%32)) != 0
			default:
				t.Charge(chargeIndex)
				return t.LdI32(e.tabu, a*n+j) != 0
			}
		}
		setVisited := func(t *cuda.Thread, a, j int) {
			switch plan.layout {
			case tabuShByte:
				t.Charge(chargeIndex + 1)
				bi := j*threads + t.ID()
				w := t.LdShI32(tabuSh, bi/4)
				t.StShI32(tabuSh, bi/4, w|0xFF<<uint(8*(bi%4)))
			case tabuShBits:
				t.Charge(chargeBitTabu)
				idx := (j/32)*threads + t.ID()
				w := t.LdShI32(tabuSh, idx)
				t.StShI32(tabuSh, idx, w|1<<uint(j%32))
			default:
				t.StI32(e.tabu, a*n+j, 1)
			}
		}

		// draw returns the step's uniform random for the thread's ant.
		// Versions 1–2 call the library generator (state round-tripped
		// through global memory); versions 3–5 read the random pre-
		// generated by the device-function kernel from global memory;
		// version 6 fetches the same buffer through the texture cache.
		draw := func(t *cuda.Thread, a, step int) float32 {
			switch {
			case texRand:
				t.Charge(chargeIndex)
				return t.TexF32(randTex, a*n+step)
			case libRNG:
				return t.LibF32(e.libRNG, a)
			default:
				t.Charge(chargeIndex)
				return t.LdF32(e.randoms, a*n+step)
			}
		}

		// edgeValue returns τ^α·η^β for (i,j): version 1 recomputes it from
		// the pheromone and distance matrices at every visit — with the
		// sequential code's double-precision pow, at the device's DP rate —
		// while later versions read the precomputed choice matrix.
		dpPow := chargePowDP * e.Dev.DPArithFactor
		edgeValue := func(t *cuda.Thread, i, j int) float32 {
			idx := i*n + j
			if recompute {
				tau := t.LdF32(e.pher, idx)
				d := t.LdF32(e.dist, idx)
				t.Charge(2*dpPow + chargeDiv + chargeMulAdd)
				return powF32(tau, float32(e.P.Alpha)) * powF32(heuristicF32(d), float32(e.P.Beta))
			}
			t.Charge(chargeIndex)
			return t.LdF32(e.choice, idx)
		}

		// --- init: reset tabu, then place ants randomly ------------------
		// The clear is its own phase: the cooperative byte-array clear
		// stripes words across all threads, so it must complete before any
		// thread marks its starting city.
		b.Run(func(t *cuda.Thread) {
			switch plan.layout {
			case tabuShByte:
				for w := t.ID(); w < byteWords; w += threads {
					t.StShI32(tabuSh, w, 0)
				}
			case tabuShBits:
				for w := 0; w < words; w++ {
					t.StShI32(tabuSh, w*threads+t.ID(), 0)
				}
			default:
				if a := ant(t); a >= 0 {
					for j := 0; j < n; j++ {
						t.StI32(e.tabu, a*n+j, 0)
					}
				}
			}
		})
		b.Sync()
		b.Run(func(t *cuda.Thread) {
			a := ant(t)
			if a < 0 {
				return
			}
			r := draw(t, a, 0)
			c := int32(r * float32(n))
			if c >= int32(n) {
				c = int32(n) - 1
			}
			t.Charge(3)
			cur[t.ID()] = c
			lenAcc[t.ID()] = 0
			setVisited(t, a, int(c))
			t.StI32(e.tours, a*e.tourPad+0, c)
		})
		b.Sync()

		// --- construction steps ------------------------------------------
		for step := 1; step <= stepsToRun; step++ {
			if useNN {
				// Pass 1: probabilities over the NN list.
				b.Run(func(t *cuda.Thread) {
					a := ant(t)
					if a < 0 {
						return
					}
					c := int(cur[t.ID()])
					sum := float32(0)
					pr := probs[t.ID()]
					for k := 0; k < nn; k++ {
						j := t.LdI32(e.nnList, c*nn+k)
						if visited(t, a, int(j)) {
							pr[k] = 0
							t.Diverge(chargeBranch / 32.0)
						} else {
							w := edgeValue(t, c, int(j))
							pr[k] = w
							sum += w
							t.Charge(chargeMulAdd)
						}
					}
					sums[t.ID()] = sum
				})
				// Pass 2: roulette over the list, falling back to the best
				// feasible city when the whole list is visited.
				b.Run(func(t *cuda.Thread) {
					a := ant(t)
					if a < 0 {
						return
					}
					c := int(cur[t.ID()])
					next := -1
					if sums[t.ID()] > 0 {
						r := draw(t, a, step) * sums[t.ID()]
						t.Charge(chargeMulAdd)
						acc := float32(0)
						lastValid := -1
						pr := probs[t.ID()]
						for k := 0; k < nn; k++ {
							acc += pr[k]
							t.Charge(chargeCompare + chargeMulAdd)
							if pr[k] > 0 {
								lastValid = k
								if acc >= r {
									next = int(t.LdI32(e.nnList, c*nn+k))
									break
								}
							}
						}
						if next < 0 && lastValid >= 0 {
							// r == total edge: float32 rounding pushed r past
							// the scan's running sum; take the last positive
							// slot (the distribution's own limit) instead of
							// diverting through the greedy fallback.
							next = int(t.LdI32(e.nnList, c*nn+lastValid))
						}
					}
					if next < 0 {
						// Fall back: best feasible by choice value over all
						// cities (divergent: only the exhausted lanes scan).
						_ = draw(t, a, step)
						bestV := float32(-1)
						for j := 0; j < n; j++ {
							if visited(t, a, j) {
								continue
							}
							w := edgeValue(t, c, j)
							t.Charge(chargeCompare)
							if w > bestV {
								bestV = w
								next = j
							}
						}
						t.Diverge(float64(n) * chargeBranch / 32.0)
					}
					if next < 0 {
						b.Failf("no feasible city in NN construction for ant %d at step %d", a, step)
					}
					d := t.LdF32(e.dist, c*n+next)
					lenAcc[t.ID()] += d
					cur[t.ID()] = int32(next)
					setVisited(t, a, next)
					t.StI32(e.tours, a*e.tourPad+step, int32(next))
					t.Charge(4)
				})
			} else {
				// Pass 1: probability sum over all unvisited cities. The
				// visited check is the divergent branch the paper calls out.
				b.Run(func(t *cuda.Thread) {
					a := ant(t)
					if a < 0 {
						return
					}
					c := int(cur[t.ID()])
					sum := float32(0)
					skips := 0
					for j := 0; j < n; j++ {
						if visited(t, a, j) {
							skips++
							continue
						}
						sum += edgeValue(t, c, j)
						t.Charge(chargeMulAdd)
					}
					sums[t.ID()] = sum
					t.Diverge(float64(skips) * chargeBranch / 32.0)
				})
				// Pass 2: roulette rescan (per-thread arrays of size n do
				// not fit in registers, so the task-based kernels recompute
				// values instead of storing them — as real implementations
				// of this design must).
				b.Run(func(t *cuda.Thread) {
					a := ant(t)
					if a < 0 {
						return
					}
					c := int(cur[t.ID()])
					r := draw(t, a, step) * sums[t.ID()]
					t.Charge(chargeMulAdd)
					acc := float32(0)
					next := -1
					lastValid := -1
					fallback := -1
					for j := 0; j < n; j++ {
						if visited(t, a, j) {
							continue
						}
						fallback = j
						v := edgeValue(t, c, j)
						acc += v
						t.Charge(chargeCompare + chargeMulAdd)
						if v > 0 {
							// Only a slot that moved the running sum may win:
							// without the positivity guard, r == 0 (a zero
							// draw) selects the first unvisited city even
							// when its choice value underflowed to zero —
							// a zero-probability emission.
							lastValid = j
							if acc >= r {
								next = j
								break
							}
						}
					}
					if next < 0 {
						next = lastValid // r == total edge: last positive slot
					}
					if next < 0 {
						next = fallback // every unvisited value is zero
					}
					if next < 0 {
						b.Failf("no feasible city in probabilistic construction for ant %d at step %d", a, step)
					}
					d := t.LdF32(e.dist, c*n+next)
					lenAcc[t.ID()] += d
					cur[t.ID()] = int32(next)
					setVisited(t, a, next)
					t.StI32(e.tours, a*e.tourPad+step, int32(next))
					t.Charge(4)
				})
			}
			b.Sync()
		}

		// --- finish: close the tour, pad, store the length ---------------
		b.Run(func(t *cuda.Thread) {
			a := ant(t)
			if a < 0 {
				return
			}
			first := t.LdI32(e.tours, a*e.tourPad+0)
			c := int(cur[t.ID()])
			d := t.LdF32(e.dist, c*n+int(first))
			lenAcc[t.ID()] += d
			for p := n; p < e.tourPad; p++ {
				t.StI32(e.tours, a*e.tourPad+p, first)
			}
			t.StF32(e.lengths, a, lenAcc[t.ID()])
			t.Charge(4)
		})
	}

	return e.launch(cfg, fmt.Sprintf("tour-task-v%d", int(v)), per, kernel)
}
