package core

import (
	"fmt"

	"antgpu/internal/aco"
	"antgpu/internal/cuda"
	"antgpu/internal/rng"
	"antgpu/internal/tsp"
)

// GPU Ant Colony System — the paper's stated future work ("We will also
// implement other ACO algorithms, such as the Ant Colony System, which can
// also be efficiently implemented on the GPU"). The construction kernel
// extends the paper's data-parallel design (one block per ant, one thread
// per city): the pseudo-random proportional rule maps naturally onto the
// same shared-memory argmax reduction — exploitation reduces over
// choice·tabu, exploration over choice·rand·tabu — and the local pheromone
// update is a per-step edge write by the leader thread. The global update
// is a single small kernel over the best-so-far tour's edges.
//
// As in published GPU ACS implementations, concurrent local updates from
// different ant-blocks to a shared edge are unsynchronised (last writer
// wins); ACS tolerates the staleness by design. The construction launch
// declares SerialBlocks so the simulator executes the ant-blocks in a fixed
// order — last-writer-wins then resolves identically every run, keeping the
// determinism guarantee of DESIGN.md §5 (host-side only; the simulated
// timing still models all blocks running concurrently).

// ACSEngine runs the Ant Colony System on the simulated device.
type ACSEngine struct {
	*Engine
	PA aco.ACSParams

	bestDev *cuda.I32 // best-so-far tour on the device (n entries)
}

// NewACSEngine creates a GPU ACS colony with trails at aco.ACSTau0 and the
// ACS-default ant count (10 unless overridden); d is as in
// EngineOptions.Derived.
func NewACSEngine(dev *cuda.Device, in *tsp.Instance, p aco.ACSParams, d *tsp.Derived) (*ACSEngine, error) {
	if err := p.Validate(in.N()); err != nil {
		return nil, err
	}
	e, err := NewEngineWithOptions(dev, in, p.Params, EngineOptions{Derived: d})
	if err != nil {
		return nil, err
	}
	e.tau0 = aco.ACSTau0(e.n, e.cnn)
	e.pher.Fill(float32(e.tau0))
	bestDev, err := dev.MallocI32("best-tour", in.N())
	if err != nil {
		e.Free()
		return nil, fmt.Errorf("core: engine allocation: %w", err)
	}
	return &ACSEngine{Engine: e, PA: p, bestDev: bestDev}, nil
}

// Free releases the ACS engine's device buffers.
func (a *ACSEngine) Free() {
	a.bestDev.Free()
	a.Engine.Free()
}

// ConstructTours launches the ACS data-parallel construction kernel: the
// choice kernel first (pheromone changed since the last iteration), then
// one block per ant with pseudo-random proportional selection and per-step
// local pheromone updates.
func (a *ACSEngine) ConstructTours() (*StageResult, error) {
	e := a.Engine
	defer e.Tracer.Phase("construct")()
	e.iteration++
	stage := &StageResult{}

	ck, err := e.ChoiceKernel()
	if err != nil {
		return nil, err
	}
	stage.add(ck)

	n, m := e.n, e.m
	threads := e.dataBlockThreads()
	tiles := (n + threads - 1) / threads
	if tiles > 32 {
		return nil, fmt.Errorf("core: ACS kernel supports up to %d cities with %d threads (n = %d)",
			32*threads, threads, n)
	}
	seed := e.P.Seed ^ (0xAC5 + e.iteration*0x9E3779B97F4A7C15)
	q0 := float32(a.PA.Q0)
	xi := float32(a.PA.Xi)
	tau0 := float32(e.tau0)
	alpha := float32(e.P.Alpha)
	beta := float32(e.P.Beta)

	cfg := cuda.LaunchConfig{
		Grid:          cuda.D1(m),
		Block:         cuda.D1(threads),
		SharedBytes:   4 * (2*threads + 2*tiles + 2),
		RegsPerThread: 22,
		SerialBlocks:  true, // unsynchronised local updates; see package comment
	}

	kernel := func(b *cuda.Block) {
		ant := b.LinearIdx()

		vals := b.SharedF32(threads)
		idxs := b.SharedI32(threads)
		tileBestV := b.SharedF32(tiles)
		tileBestI := b.SharedI32(tiles)
		nextSh := b.SharedI32(1)
		modeSh := b.SharedI32(1) // 1 = exploit, 0 = explore

		tabu := b.RegsI32(threads)
		states := b.RegsU64(threads)
		cur := 0
		lenAcc := float32(0)

		b.Run(func(t *cuda.Thread) {
			states[t.ID()] = rng.Seed(seed, uint64(ant)<<16|uint64(t.ID())).State()
			tabu[t.ID()] = -1
			t.Charge(3)
			if t.ID() == 0 {
				r := t.LCGF32(states, 0)
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

		for step := 1; step < n; step++ {
			// The leader draws q once per step to pick the rule.
			b.Run(func(t *cuda.Thread) {
				if t.ID() == 0 {
					q := t.LCGF32(states, 0)
					mode := int32(0)
					if q < q0 {
						mode = 1
					}
					t.Charge(chargeCompare)
					t.StShI32(modeSh, 0, mode)
				}
			})
			b.Sync()
			for tile := 0; tile < tiles; tile++ {
				tile := tile
				b.Run(func(t *cuda.Thread) {
					exploit := t.LdShI32(modeSh, 0) == 1
					j := tile*threads + t.ID()
					val := float32(-1)
					if j < n {
						w := t.LdF32(e.choice, cur*n+j)
						tb := float32((tabu[t.ID()] >> uint(tile)) & 1)
						// + (tb-1) sinks a visited city to -1, as in the AS
						// kernel, so a choice row collapsed to zero cannot
						// crown one; for tb = 1 it adds +0.0.
						if exploit {
							val = w*tb + (tb - 1)
						} else {
							r := t.LCGF32(states, t.ID()) + 1e-6
							val = w*r*tb + (tb - 1)
						}
						t.Charge(2*chargeMulAdd + chargeBitTabu + chargeIndex)
					}
					t.StShF32(vals, t.ID(), val)
					t.StShI32(idxs, t.ID(), int32(j))
				})
				b.Sync()
				for s := threads / 2; s > 0; s /= 2 {
					s := s
					b.Run(func(t *cuda.Thread) {
						if t.ID() < s {
							x := t.LdShF32(vals, t.ID())
							y := t.LdShF32(vals, t.ID()+s)
							t.Charge(chargeCompare)
							if y > x {
								t.StShF32(vals, t.ID(), y)
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
			// Winner among tiles, bookkeeping, and the ACS local update.
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
						b.Failf("ACS selection found no city for ant %d at step %d", ant, step)
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
					// Local pheromone update on the crossed edge, both
					// halves, plus the choice refresh.
					a.localUpdate(t, cur, next, xi, tau0, alpha, beta)
					cur = next
					t.StI32(e.tours, ant*e.tourPad+step, int32(next))
					t.Charge(chargeMulAdd)
				}
			})
			b.Sync()
		}

		b.Run(func(t *cuda.Thread) {
			if t.ID() != 0 {
				return
			}
			first := t.LdI32(e.tours, ant*e.tourPad+0)
			lenAcc += t.LdF32(e.dist, cur*n+int(first))
			a.localUpdate(t, cur, int(first), xi, tau0, alpha, beta)
			for p := n; p < e.tourPad; p++ {
				t.StI32(e.tours, ant*e.tourPad+p, first)
			}
			t.StF32(e.lengths, ant, lenAcc)
			t.Charge(4)
		})
	}

	per := int64(n) * int64(tiles) * int64(threads) * 12
	res, err := e.launch(cfg, "acs-tour", per, kernel)
	if err != nil {
		return nil, err
	}
	stage.add(res)
	return stage, nil
}

// localUpdate performs τ ← (1-ξ)τ + ξτ0 on edge (i,j) symmetrically and
// refreshes the two choice entries.
func (a *ACSEngine) localUpdate(t *cuda.Thread, i, j int, xi, tau0, alpha, beta float32) {
	e := a.Engine
	n := e.n
	v := (1-xi)*t.LdF32(e.pher, i*n+j) + xi*tau0
	t.StF32(e.pher, i*n+j, v)
	t.StF32(e.pher, j*n+i, v)
	d := t.LdF32(e.dist, i*n+j)
	c := powF32(v, alpha) * powF32(heuristicF32(d), beta)
	t.StF32(e.choice, i*n+j, c)
	t.StF32(e.choice, j*n+i, c)
	t.Charge(2*chargeMulAdd + 2*chargePow + chargeDiv)
}

// GlobalUpdate uploads the best-so-far tour and launches the ACS global
// update kernel: one thread per edge of the best tour.
func (a *ACSEngine) GlobalUpdate() (*StageResult, error) {
	e := a.Engine
	defer e.Tracer.Phase("update")()
	best, bestLen := e.Best()
	if best == nil {
		return nil, fmt.Errorf("core: ACS global update before any ReadBest")
	}
	copy(a.bestDev.Data(), best)

	n := e.n
	rho := float32(e.P.Rho)
	delta := rho / float32(bestLen)
	alpha := float32(e.P.Alpha)
	beta := float32(e.P.Beta)
	threads := e.theta
	blocks := (n + threads - 1) / threads

	cfg := cuda.LaunchConfig{Grid: cuda.D1(blocks), Block: cuda.D1(threads)}
	res, err := e.launch(cfg, "acs-global", int64(threads*8), func(b *cuda.Block) {
		b.Run(func(t *cuda.Thread) {
			i := t.GlobalID()
			if i >= n {
				return
			}
			x := int(t.LdI32(a.bestDev, i))
			y := int(t.LdI32(a.bestDev, (i+1)%n))
			v := (1-rho)*t.LdF32(e.pher, x*n+y) + delta
			t.StF32(e.pher, x*n+y, v)
			t.StF32(e.pher, y*n+x, v)
			d := t.LdF32(e.dist, x*n+y)
			c := powF32(v, alpha) * powF32(heuristicF32(d), beta)
			t.StF32(e.choice, x*n+y, c)
			t.StF32(e.choice, y*n+x, c)
			t.Charge(3*chargeMulAdd + 2*chargePow + chargeDiv)
		})
	})
	if err != nil {
		return nil, err
	}
	stage := &StageResult{}
	stage.add(res)
	return stage, nil
}

// Iterate runs one full GPU ACS iteration and returns its stages.
func (a *ACSEngine) Iterate() (*IterationResult, error) {
	return a.iterate(a.ConstructTours, func(int) (*StageResult, error) { return a.GlobalUpdate() })
}
