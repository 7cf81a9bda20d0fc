package core

import (
	"math"
	"math/bits"

	"antgpu/internal/cuda"
	"antgpu/internal/rng"
)

// choiceBlock is the thread-block size of the element-wise matrix kernels.
const choiceBlock = 256

// ChoiceKernel computes choice[i][j] = τ(i,j)^α · η(i,j)^β over the whole
// matrix, one thread per cell — the paper's "Choice kernel" (version 2+).
// Accesses are perfectly coalesced and the kernel is compute-bound on the
// two powf calls.
func (e *Engine) ChoiceKernel() (*cuda.LaunchResult, error) {
	defer e.Tracer.Phase("choice")()
	n := e.n
	cells := n * n
	alpha := float32(e.P.Alpha)
	beta := float32(e.P.Beta)
	grid := (cells + choiceBlock - 1) / choiceBlock

	cfg := cuda.LaunchConfig{
		Grid:  cuda.D1(grid),
		Block: cuda.D1(choiceBlock),
		// Loads are independent element streams.
		LatencyOverlap: 4,
	}
	return e.launch(cfg, "choice", int64(choiceBlock*3), func(b *cuda.Block) {
		if e.Vector {
			// Vector fast path: one warp instruction per access row. A cell
			// gid is diagonal iff gid % (n+1) == 0 (gid = i*(n+1)), so the
			// diagonal lanes split off as a store mask and the rest follow
			// the scalar path's load/compute/store row. The warp issue
			// charge is the scalar per-lane maximum: the full product cost
			// if any off-diagonal lane is live, else the compare.
			b.RunWarps(func(w *cuda.Warp) {
				gbase := b.LinearIdx()*b.Threads() + w.Base()
				live := w.MaskTo(cells - gbase)
				if live == 0 {
					return
				}
				var diag uint32
				for mk := live; mk != 0; mk &= mk - 1 {
					l := bits.TrailingZeros32(mk)
					if (gbase+l)%(n+1) == 0 {
						diag |= 1 << uint(l)
					}
				}
				norm := live &^ diag
				var zero, tau, d, out [32]float32
				w.StF32Masked(e.choice, gbase, diag, zero[:])
				w.LdF32Masked(e.pher, gbase, norm, tau[:])
				w.LdF32Masked(e.dist, gbase, norm, d[:])
				for mk := norm; mk != 0; mk &= mk - 1 {
					l := bits.TrailingZeros32(mk)
					out[l] = powF32(tau[l], alpha) * powF32(heuristicF32(d[l]), beta)
				}
				if norm != 0 {
					w.Charge(2*chargePow + chargeDiv + chargeMulAdd + chargeIndex)
				} else {
					w.Charge(chargeCompare)
				}
				w.StF32Masked(e.choice, gbase, norm, out[:])
			})
			return
		}
		b.Run(func(t *cuda.Thread) {
			gid := t.GlobalID()
			if gid >= cells {
				return
			}
			i := gid / n
			j := gid % n
			if i == j {
				t.StF32(e.choice, gid, 0)
				t.Charge(chargeCompare)
				return
			}
			tau := t.LdF32(e.pher, gid)
			d := t.LdF32(e.dist, gid)
			v := powF32(tau, alpha) * powF32(heuristicF32(d), beta)
			t.Charge(2*chargePow + chargeDiv + chargeMulAdd + chargeIndex)
			t.StF32(e.choice, gid, v)
		})
	})
}

// powF32 is the device powf. Marginal float32/float64 rounding differences
// against the CPU colony are expected and covered by test tolerances.
func powF32(x, p float32) float32 {
	switch p {
	case 1:
		return x
	case 2:
		return x * x
	}
	return float32(math.Pow(float64(x), float64(p)))
}

// FillRandoms pre-generates one uniform random per (ant, step) into the
// randoms buffer, laid out row-per-ant so that texture fetches enjoy
// per-ant line locality (the paper's version 6 reads these through the
// texture cache). One thread per value, stateless counter-based LCG.
func (e *Engine) FillRandoms() (*cuda.LaunchResult, error) {
	total := e.m * e.n
	grid := (total + choiceBlock - 1) / choiceBlock
	seed := e.P.Seed ^ (e.iteration * 0x9E3779B97F4A7C15)

	cfg := cuda.LaunchConfig{
		Grid:           cuda.D1(grid),
		Block:          cuda.D1(choiceBlock),
		LatencyOverlap: 4,
	}
	return e.launch(cfg, "rngfill", int64(choiceBlock), func(b *cuda.Block) {
		if e.Vector {
			b.RunWarps(func(w *cuda.Warp) {
				gbase := b.LinearIdx()*b.Threads() + w.Base()
				live := w.MaskTo(total - gbase)
				if live == 0 {
					return
				}
				var vals [32]float32
				for mk := live; mk != 0; mk &= mk - 1 {
					l := bits.TrailingZeros32(mk)
					g := rng.Seed(seed, uint64(gbase+l))
					vals[l] = g.Float32()
				}
				w.Charge(rng.DeviceLCGCharge + 4) // seeding scramble + draw
				w.StF32Masked(e.randoms, gbase, live, vals[:])
			})
			return
		}
		b.Run(func(t *cuda.Thread) {
			gid := t.GlobalID()
			if gid >= total {
				return
			}
			g := rng.Seed(seed, uint64(gid))
			t.Charge(rng.DeviceLCGCharge + 4) // seeding scramble + draw
			t.StF32(e.randoms, gid, g.Float32())
		})
	})
}
