package cuda

import (
	"math"
	"math/bits"

	"antgpu/internal/rng"
)

// Warp is the kernel-side handle to one warp within a RunWarps phase: the
// vector fast path of the simulator. Where a Run phase executes the closure
// once per thread and recovers warp instructions by positionally realigning
// 32 per-lane record streams, a RunWarps phase executes once per warp and
// each Warp op meters one whole warp instruction analytically — transaction
// counts, bank conflicts and texture-line hits are computed in closed form
// (or a single <=32-iteration pass) from the (base, stride, mask) triple.
//
// The two paths are meter-equivalent by construction: every op documents the
// scalar access pattern it models, and the equivalence tests in warp_test.go
// and internal/core assert identical Meter structs and byte-identical
// buffers for every ported kernel. Kernels with data-dependent control flow
// per lane (divergent scans, early exits) stay on the scalar path; the
// analytic metering is exact only when the warp's accesses are expressible
// as rows, strides, broadcasts or explicit per-lane index vectors.
//
// Lane-indexed slice arguments (dst, src, idxs, vals) are indexed by lane
// [0, 32) and must be at least as long as the highest set mask bit + 1. A
// masked op with mask 0 issues nothing and meters nothing, so kernels can
// pass conditionally-empty masks without branching.
type Warp struct {
	b      *Block
	id     int    // warp index within block
	base   int    // first thread id of the warp
	active int    // live lanes (threads may not fill the last warp)
	mask   uint32 // bit per live lane; live lanes are always a prefix
}

// Block returns the enclosing block handle.
func (w *Warp) Block() *Block { return w.b }

// ID returns the warp index within the block.
func (w *Warp) ID() int { return w.id }

// Base returns the linear thread id of the warp's lane 0.
func (w *Warp) Base() int { return w.base }

// Active returns the number of live lanes in the warp.
func (w *Warp) Active() int { return w.active }

// Mask returns the live-lane mask (a prefix mask of Active bits).
func (w *Warp) Mask() uint32 { return w.mask }

// MaskTo returns the mask of the first n live lanes (n is clamped to the
// active count). Because live lanes form a prefix, this is the mask of
// threads with id < Base()+n.
func (w *Warp) MaskTo(n int) uint32 {
	if n >= w.active {
		return w.mask
	}
	if n <= 0 {
		return 0
	}
	return 1<<uint(n) - 1
}

// Charge accounts n warp instruction issues of arithmetic. It is the warp
// analogue of Thread.Charge: the scalar path issues the maximum of the
// per-lane charges, so a vector kernel must pass that maximum itself (for a
// divergent phase, the cost of the slowest lane's path).
func (w *Warp) Charge(n float64) { w.b.meter.ComputeIssues += n }

// Diverge charges extra issues caused by intra-warp divergence, mirroring
// Thread.Diverge.
func (w *Warp) Diverge(extraIssues float64) { w.b.meter.DivergentExtra += extraIssues }

// RunWarps executes one warp-granular phase over all warps of the block, the
// vector counterpart of Block.Run. The closure receives each warp once; the
// *Warp is only valid for the duration of the call. Scalar Run phases and
// vector RunWarps phases may be mixed freely within one kernel.
func (b *Block) RunWarps(f func(w *Warp)) {
	ws := b.dev.WarpSize
	if ws > 32 {
		panic("cuda: RunWarps requires WarpSize <= 32 (lane masks are uint32)")
	}
	b.meter.RunPhases++
	w := &b.warp
	w.b = b
	for wi := 0; wi < b.warps; wi++ {
		base := wi * ws
		active := b.threads - base
		if active > ws {
			active = ws
		}
		w.id = wi
		w.base = base
		w.active = active
		if active >= 32 {
			w.mask = ^uint32(0)
		} else {
			w.mask = 1<<uint(active) - 1
		}
		f(w)
		b.meter.LaneOps += int64(active)
	}
}

// ArgMaxSh runs the block-wide shared-memory argmax tree in one call: for
// s = Threads()/2, Threads()/4, ..., 1, every slot t < s whose partner
// vals[t+s] is strictly greater takes vals[t+s] and idxs[t+s], and a
// barrier ends the level. Afterwards vals[0] and idxs[0] hold the winner
// (with a power-of-two block, the tree covers every slot). Ties keep the
// lower slot and a NaN partner never wins. vals and idxs must hold at least
// Threads() slots.
//
// It meters exactly what the tree written as one RunWarps phase and one
// Sync per level meters. Per level, each warp with lanes t < s issues two
// shared loads over those lanes, charge compute issues and, if any partner
// won, a shared store, a shared load and a shared store over the winning
// lanes; every warp counts its live lanes; then the barrier. The compute
// charges and barrier costs are added in the same order, level by level and
// warp by warp, so even a fractional charge sums to the same bits; the
// instruction and operation counts are whole numbers, exact in any grouping.
func (b *Block) ArgMaxSh(vals []float32, idxs []int32, charge float64) {
	ws := b.dev.WarpSize
	m := b.meter
	vals, idxs = vals[:b.threads], idxs[:b.threads]
	for s := b.threads / 2; s > 0; s /= 2 {
		m.RunPhases++
		for base := 0; base < s; base += ws {
			n := min(s-base, ws)
			won := argMaxLevel(vals[base:base+n], vals[s+base:s+base+n], idxs[base:base+n], idxs[s+base:s+base+n])
			m.SharedInstr += 2
			m.SharedOps += 2 * int64(n)
			m.ComputeIssues += charge
			if won > 0 {
				m.SharedInstr += 3
				m.SharedOps += 3 * int64(won)
			}
		}
		m.LaneOps += int64(b.threads)
		b.Sync()
	}
}

// argMaxLevel is one warp's compare loop at one level of ArgMaxSh: slot t
// of lo takes hi[t] and ihi[t] when hi[t] is strictly greater. It returns
// the number of slots that took their partner. Both sides are loaded first
// and the winner is selected through the bits, so the compiler emits
// conditional moves: whether a partner wins is a coin flip on random scores,
// where a branch would mispredict half the time. A NaN partner fails the
// compare, and bits keep a −0. Cut to one length and free of the
// collective's other values, the loop runs without bounds checks or
// reloads from the frame.
func argMaxLevel(lo, hi []float32, ilo, ihi []int32) int {
	hi, ilo, ihi = hi[:len(lo)], ilo[:len(lo)], ihi[:len(lo)]
	won := 0
	for t, a := range lo {
		c := hi[t]
		v, i := math.Float32bits(a), ilo[t]
		vc, ic := math.Float32bits(c), ihi[t]
		w := 0
		if c > a {
			v, i, w = vc, ic, 1
		}
		lo[t], ilo[t] = math.Float32frombits(v), i
		won += w
	}
	return won
}

// IRouletteTile runs one tile phase of the paper's data-parallel tour
// construction (the I-Roulette draw) as one collective. Thread t scores
// city j = tile·Threads() + t of the choice row that starts at choice[row].
// A city j < n draws the thread's register LCG, r = rng.NextF32Raw(states,
// t) + 1e-6, takes its tabu bit tb = (tabu[t] >> tile) & 1 and scores
// vals[t] = choice[row+j]·r·tb + (tb − 1); the last term sinks a visited
// city to −1, below any unvisited score even when every choice value
// underflows to zero, and adds +0.0 to an unvisited one. A city j ≥ n
// scores −1 and draws nothing. Every thread sets idxs[t] = j. When tex is
// not nil it binds choice and the row is fetched through its cache.
//
// It meters exactly what the phase written as one RunWarps phase meters:
// per warp, one fetch of the in-range lanes' row (texture probes or a
// global load), charge compute issues if any lane is in range, and three
// shared stores, each issued only over non-empty lanes: the out-of-range
// lanes' vals, one instruction merging the in-range lanes' vals with the
// out-of-range lanes' idxs (the scalar path's positional retirement merges
// them), and the in-range lanes' idxs; then the warp's live lanes. The
// fetches and charges come warp by warp in lane order, so the texture
// cache sees the same probe sequence and a fractional charge sums to the
// same bits.
func (b *Block) IRouletteTile(choice *F32, tex *Texture, row, n, tile int, states []uint64, tabu []int32, vals []float32, idxs []int32, charge float64) {
	ws := b.dev.WarpSize
	if ws > 32 {
		panic("cuda: IRouletteTile requires WarpSize <= 32 (lane masks are uint32)")
	}
	threads := b.threads
	first := tile * threads
	in := min(max(n-first, 0), threads)
	row += first

	drawTile(vals[:threads], idxs[:threads], choice.data[row:row+in], states, tabu, tile, int32(first))

	m := b.meter
	m.RunPhases++
	var tc *texTags
	if tex != nil && in > 0 {
		tc = b.texCache(tex.buf.id)
	}
	for base := 0; base < threads; base += ws {
		active := min(threads-base, ws)
		k := min(max(in-base, 0), active)
		if k > 0 {
			if tc != nil {
				b.meterTex(tc, row+base, uint32(1)<<uint(k)-1)
			} else {
				b.meterGlobalLoad(rowTx(row+base, k, 4, b.segBytes()), k)
			}
			m.ComputeIssues += charge
			m.SharedInstr++ // the in-range lanes' idxs
		}
		if k < active {
			m.SharedInstr++ // the out-of-range lanes' vals
		}
		m.SharedInstr++ // the merged store
		m.SharedOps += 2 * int64(active)
		m.LaneOps += int64(active)
	}
}

// StoreTileBest is the phase that follows ArgMaxSh in a step of the
// data-parallel tour construction: lane 0 of warp 0 copies the tile's
// winner, vals[0] and idxs[0], to bestV[tile] and bestI[tile].
//
// It meters exactly what that phase written as one RunWarps phase meters:
// warp 0's four one-lane shared instructions (two loads, two stores) and
// every warp's live lanes.
func (b *Block) StoreTileBest(vals []float32, idxs []int32, bestV []float32, bestI []int32, tile int) {
	bestV[tile], bestI[tile] = vals[0], idxs[0]
	m := b.meter
	m.RunPhases++
	m.SharedInstr += 4
	m.SharedOps += 4
	m.LaneOps += int64(b.threads)
}

// TileWinner picks a construction step's city among the tile winners: lane
// 0 of warp 0 scans bestV in tile order, keeps the first tile whose value is
// strictly greater than the best so far (starting from −1, so a NaN or a
// sunk tile never wins), reads that tile's city from bestI, and stores the
// winner to next[0]. It returns the winner, or −1 when no tile beat −1,
// which leaves the ant without a city: the caller must then fail the launch.
//
// It meters exactly what that phase written as one RunWarps phase meters:
// warp 0's one-lane shared load per tile, plus the index load each time a
// tile improves on the best so far, len(bestV)·charge compute issues, the
// one-lane shared store of the winner, and every warp's live lanes.
func (b *Block) TileWinner(bestV []float32, bestI []int32, next []int32, charge float64) int32 {
	bestI = bestI[:len(bestV)]
	v, best := float32(-1), int32(-1)
	loads := len(bestV)
	for t, c := range bestV {
		if c > v {
			v, best = c, bestI[t]
			loads++
		}
	}
	next[0] = best
	m := b.meter
	m.RunPhases++
	m.SharedInstr += float64(loads + 1)
	m.SharedOps += int64(loads + 1)
	m.ComputeIssues += float64(len(bestV)) * charge
	m.LaneOps += int64(b.threads)
	return best
}

// VisitCity is the bookkeeping phase of a data-parallel construction step.
// Every thread reads the step's city c = next[0]; thread c mod Threads(),
// which scores c, clears bit c / Threads() of its tabu word; lane 0 of warp
// 0 reads the edge length dist[row+c] and stores c to tours[pos]. It
// returns c and the edge length.
//
// It meters exactly what that phase written as one RunWarps phase meters,
// warp by warp: a shared broadcast load over the live lanes; in warp 0 a
// one-lane global load and a one-lane global store; the compute issues of
// the warp's slowest lane, where every lane costs charge, the lane that
// clears its tabu bit charge + bitCharge, and lane 0 of warp 0 charge +
// laneCharge (+ bitCharge if it clears the bit); then the live lanes. The
// compute issues are added warp by warp, as in that phase, so a fractional
// charge sums to the same bits.
func (b *Block) VisitCity(next, tabu []int32, dist *F32, row int, tours *I32, pos int, charge, bitCharge, laneCharge float64) (int, float32) {
	ws, threads := b.dev.WarpSize, b.threads
	c := int(next[0])
	owner := c % threads
	tabu[owner] &^= 1 << uint(c/threads)
	d := dist.data[row+c]
	tours.data[pos] = int32(c)

	m := b.meter
	m.RunPhases++
	for base := 0; base < threads; base += ws {
		active := min(threads-base, ws)
		m.SharedInstr++
		m.SharedOps += int64(active)
		issues := charge
		if owner >= base && owner < base+active {
			if x := charge + bitCharge; x > issues {
				issues = x
			}
		}
		if base == 0 {
			x := charge + laneCharge
			if owner == 0 {
				x += bitCharge
			}
			if x > issues {
				issues = x
			}
			b.meterGlobalLoad(1, 1)
			b.meterGlobalStore(1, 1)
		}
		m.ComputeIssues += issues
		m.LaneOps += int64(active)
	}
	return c, d
}

// drawTile is IRouletteTile's draw: lane t < len(src) scores src[t] with
// its LCG draw and bit tile of its tabu word, the other lanes of vals score
// −1, and lane t of idxs holds first + t. The out-of-range lanes come first,
// and the draw loop indexes only slices cut to its length and shifts by a
// masked count (a block has at most 32 tiles), so it has no bounds checks or
// shift guard and nothing else is live across it: its pointers, shift and
// lane counter stay in registers instead of being reloaded from the stack
// on every lane.
func drawTile(vals []float32, idxs []int32, src []float32, states []uint64, tabu []int32, tile int, first int32) {
	out, iout := vals[len(src):], idxs[len(src):len(vals)]
	for t := range out {
		out[t] = -1
		iout[t] = first + int32(len(src)+t)
	}
	st, tb := states[:len(src)], tabu[:len(src)]
	vs, is := vals[:len(src)], idxs[:len(src)]
	shift := uint(tile) & 31
	for t, w := range src {
		g := rng.FromState(st[t])
		r := g.Float32() + 1e-6
		st[t] = g.State()
		bit := float32((tb[t] >> shift) & 1)
		vs[t] = w*r*bit + (bit - 1)
		is[t] = first + int32(t)
	}
}

// --- metering helpers -------------------------------------------------------

func (b *Block) meterGlobalLoad(tx, ops int) {
	b.meter.GlobalLoadInstr++
	b.meter.GlobalLoadTx += int64(tx)
	b.meter.GlobalLoadOps += int64(ops)
}

func (b *Block) meterGlobalStore(tx, ops int) {
	b.meter.GlobalStoreInst++
	b.meter.GlobalStoreTx += int64(tx)
	b.meter.GlobalStoreOps += int64(ops)
}

func (b *Block) meterShared(ops int) {
	b.meter.SharedInstr++
	b.meter.SharedOps += int64(ops)
}

// rowTx is the closed-form transaction count of a dense row access: count
// consecutive elements starting at base.
func rowTx(base, count int, elemBytes, segBytes int64) int {
	first := int64(base) * elemBytes / segBytes
	last := (int64(base) + int64(count) - 1) * elemBytes / segBytes
	return int(last - first + 1)
}

// maskedRowTx counts the distinct segments of a masked row access. Skipped
// lanes may skip whole segments, so the closed form does not apply; the
// addresses are monotone in lane order, so consecutive dedup suffices.
func maskedRowTx(base int, mask uint32, elemBytes, segBytes int64) int {
	tx := 0
	prev := int64(-1)
	first := true
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		seg := (int64(base) + int64(l)) * elemBytes / segBytes
		if first || seg != prev {
			tx++
			prev = seg
			first = false
		}
	}
	return tx
}

// stridedTx counts the distinct segments of a strided access
// (lane l touches base + l*stride). The address sequence is monotone for any
// fixed stride, so consecutive dedup counts distinct segments exactly.
func stridedTx(base, stride int, mask uint32, elemBytes, segBytes int64) int {
	tx := 0
	prev := int64(-1)
	first := true
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		seg := (int64(base) + int64(l)*int64(stride)) * elemBytes / segBytes
		if first || seg != prev {
			tx++
			prev = seg
			first = false
		}
	}
	return tx
}

// gatherTx counts the distinct segments of an arbitrary per-lane index
// vector, matching the scalar path's countSegments dedup.
// laneSet is a 64-slot stack hash set for counting distinct per-lane values
// (at most 32 per warp, so the load factor never exceeds 1/2). The used
// bitmask gates slot validity, so insertion clears nothing.
type laneSet struct {
	keys [64]int64
	used uint64
}

func (s *laneSet) insert(v int64) bool {
	h := uint64(v) * 0x9e3779b97f4a7c15
	i := (h ^ h>>32) & 63
	for s.used&(1<<i) != 0 {
		if s.keys[i] == v {
			return false
		}
		i = (i + 1) & 63
	}
	s.used |= 1 << i
	s.keys[i] = v
	return true
}

func (b *Block) gatherTx(idxs []int32, mask uint32, elemBytes, segBytes int64) int {
	var set laneSet
	n := 0
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		if set.insert(int64(idxs[l]) * elemBytes / segBytes) {
			n++
		}
	}
	return n
}

func (b *Block) segBytes() int64 { return int64(b.dev.SegmentBytes) }

// isPrefix reports whether mask is a lane prefix (lanes 0..n-1), as every
// full warp and every in-range tile row is. The masked row ops move a
// prefix with one copy instead of a per-lane loop; the meters do not depend
// on the path.
func isPrefix(mask uint32) bool { return mask&(mask+1) == 0 }

// loadLanes copies src[base+l] into dst[l] for every lane l in mask.
func loadLanes[T float32 | int32](dst, src []T, base int, mask uint32) {
	if isPrefix(mask) {
		n := bits.Len32(mask)
		copy(dst[:n], src[base:base+n])
		return
	}
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		dst[l] = src[base+l]
	}
}

// storeLanes copies src[l] into dst[base+l] for every lane l in mask.
func storeLanes[T float32 | int32](dst []T, base int, src []T, mask uint32) {
	if isPrefix(mask) {
		n := bits.Len32(mask)
		copy(dst[base:base+n], src[:n])
		return
	}
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		dst[base+l] = src[l]
	}
}

// --- global memory: rows ----------------------------------------------------

// LdF32Masked loads buf[base+l] into dst[l] for the lanes l in mask: one
// global load instruction, transactions counted in closed form. Models
// each lane executing t.LdF32(buf, base+t.Lane()).
func (w *Warp) LdF32Masked(buf *F32, base int, mask uint32, dst []float32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalLoad(maskedRowTx(base, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	loadLanes(dst, buf.data, base, mask)
}

// StF32Masked stores src[l] to buf[base+l] for the lanes l in mask.
func (w *Warp) StF32Masked(buf *F32, base int, mask uint32, src []float32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalStore(maskedRowTx(base, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	storeLanes(buf.data, base, src, mask)
}

// LdI32Row loads buf[base+l] into dst[l] for every live lane.
func (w *Warp) LdI32Row(buf *I32, base int, dst []int32) {
	b := w.b
	b.meterGlobalLoad(rowTx(base, w.active, 4, b.segBytes()), w.active)
	copy(dst[:w.active], buf.data[base:base+w.active])
}

// LdI32Masked is LdI32Row restricted to the lanes in mask.
func (w *Warp) LdI32Masked(buf *I32, base int, mask uint32, dst []int32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalLoad(maskedRowTx(base, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	loadLanes(dst, buf.data, base, mask)
}

// StI32Masked stores src[l] to buf[base+l] for the lanes l in mask.
func (w *Warp) StI32Masked(buf *I32, base int, mask uint32, src []int32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalStore(maskedRowTx(base, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	storeLanes(buf.data, base, src, mask)
}

// --- global memory: strides, broadcasts, gathers ----------------------------

// LdI32Strided loads buf[base+l*stride] into dst[l] for the lanes in mask.
func (w *Warp) LdI32Strided(buf *I32, base, stride int, mask uint32, dst []int32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalLoad(stridedTx(base, stride, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		dst[l] = buf.data[base+l*stride]
	}
}

// LdF32BcastMasked models the lanes in mask loading the same element: one
// instruction, one transaction (a single segment), one op per lane. With
// mask 0 it issues nothing and returns 0.
func (w *Warp) LdF32BcastMasked(buf *F32, idx int, mask uint32) float32 {
	if mask == 0 {
		return 0
	}
	w.b.meterGlobalLoad(1, bits.OnesCount32(mask))
	return buf.data[idx]
}

// LdI32BcastMasked models the lanes in mask loading the same element.
func (w *Warp) LdI32BcastMasked(buf *I32, idx int, mask uint32) int32 {
	if mask == 0 {
		return 0
	}
	w.b.meterGlobalLoad(1, bits.OnesCount32(mask))
	return buf.data[idx]
}

// LdF32Gather loads buf[idxs[l]] into dst[l] for the lanes in mask, with
// transactions counted by full segment dedup (arbitrary index vectors are
// not monotone).
func (w *Warp) LdF32Gather(buf *F32, idxs []int32, mask uint32, dst []float32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalLoad(b.gatherTx(idxs, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		dst[l] = buf.data[idxs[l]]
	}
}

// LdI32Gather loads buf[idxs[l]] into dst[l] for the lanes in mask.
func (w *Warp) LdI32Gather(buf *I32, idxs []int32, mask uint32, dst []int32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalLoad(b.gatherTx(idxs, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		dst[l] = buf.data[idxs[l]]
	}
}

// StF32Scatter stores src[l] to buf[idxs[l]] for the lanes in mask. Lanes
// scattering to the same index apply in ascending lane order, matching the
// scalar path's lane loop.
func (w *Warp) StF32Scatter(buf *F32, idxs []int32, mask uint32, src []float32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalStore(b.gatherTx(idxs, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		buf.data[idxs[l]] = src[l]
	}
}

// StI32Scatter stores src[l] to buf[idxs[l]] for the lanes in mask.
func (w *Warp) StI32Scatter(buf *I32, idxs []int32, mask uint32, src []int32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalStore(b.gatherTx(idxs, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		buf.data[idxs[l]] = src[l]
	}
}

// --- atomics ----------------------------------------------------------------

// AtomicAddF32Scatter adds vals[l] to buf[idxs[l]] for the lanes in mask:
// the scatter pheromone deposit. Conflicting lanes (same index) serialise —
// the extra is ops minus distinct addresses, matching atomicConflicts — and
// apply in ascending lane order so float sums stay bit-identical to the
// scalar lane loop.
func (w *Warp) AtomicAddF32Scatter(buf *F32, idxs []int32, mask uint32, vals []float32) {
	if mask == 0 {
		return
	}
	b := w.b
	m := b.meter
	ops := bits.OnesCount32(mask)
	m.AtomicInstr++
	m.AtomicOps += int64(ops)
	tx := b.gatherTx(idxs, mask, 4, b.segBytes())
	m.GlobalLoadTx += int64(tx)
	m.GlobalStoreTx += int64(tx)
	var set laneSet
	distinct := 0
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		i := int(idxs[l])
		if set.insert(int64(i)) {
			distinct++
		}
		mu := buf.lock.of(i)
		mu.Lock()
		buf.data[i] += vals[l]
		mu.Unlock()
		b.noteAtomic(atomicKey(buf.id, i))
	}
	m.AtomicSerialExtra += float64(ops - distinct)
}

// --- texture ----------------------------------------------------------------

// TexF32Masked fetches tex[base+l] into dst[l] for the lanes l in mask
// through the per-block texture tag cache. Distinct lines probe the tag
// cache in ascending lane order, exactly the scalar retirement's probe
// sequence, so hits and misses are identical.
func (w *Warp) TexF32Masked(tex *Texture, base int, mask uint32, dst []float32) {
	if mask == 0 {
		return
	}
	loadLanes(dst, tex.buf.data, base, mask)
	w.b.meterTex(w.b.texCache(tex.buf.id), base, mask)
}

// meterTex meters one texture fetch instruction of the lanes in mask
// (non-zero) at base+l through the tag cache tc.
func (b *Block) meterTex(tc *texTags, base int, mask uint32) {
	m := b.meter
	m.TexInstr++
	m.TexFetches += int64(bits.OnesCount32(mask))
	lineBytes := int64(b.dev.TextureLineBytes)
	if isPrefix(mask) && lineBytes >= 4 {
		// Consecutive elements of a line at least one element wide touch
		// every line from the first lane's to the last lane's, which ends
		// 4·lanes bytes after the first lane's element starts.
		start := int64(base) * 4
		line := start / lineBytes
		hits, misses := tc.probeRow(line, start-line*lineBytes+4*int64(bits.Len32(mask)), lineBytes)
		m.TexHits += hits
		m.TexMisses += misses
		if misses > 0 {
			m.TexMissInstr++
		}
		return
	}
	missed := false
	prev := int64(-1)
	for mk := mask; mk != 0; mk &= mk - 1 {
		line := int64(base+bits.TrailingZeros32(mk)) * 4 / lineBytes
		if line == prev {
			continue
		}
		prev = line
		if b.probeTex(tc, line) {
			missed = true
		}
	}
	if missed {
		m.TexMissInstr++
	}
}

// --- shared memory ----------------------------------------------------------
//
// Row and broadcast patterns over <= 32 consecutive (or identical) element
// indices touch each bank at most once, so none of these ops can bank
// conflict; they mirror the scalar bankConflictDegree <= 1 outcome exactly.

// LdShF32Masked loads s[base+l] into dst[l] for the lanes l in mask.
func (w *Warp) LdShF32Masked(s []float32, base int, mask uint32, dst []float32) {
	if mask == 0 {
		return
	}
	w.b.meterShared(bits.OnesCount32(mask))
	loadLanes(dst, s, base, mask)
}

// StShF32Masked stores src[l] to s[base+l] for the lanes l in mask.
func (w *Warp) StShF32Masked(s []float32, base int, mask uint32, src []float32) {
	if mask == 0 {
		return
	}
	w.b.meterShared(bits.OnesCount32(mask))
	storeLanes(s, base, src, mask)
}

// LdShI32Masked loads s[base+l] into dst[l] for the lanes l in mask.
func (w *Warp) LdShI32Masked(s []int32, base int, mask uint32, dst []int32) {
	if mask == 0 {
		return
	}
	w.b.meterShared(bits.OnesCount32(mask))
	loadLanes(dst, s, base, mask)
}

// StShI32Row stores src[l] to s[base+l] for every live lane.
func (w *Warp) StShI32Row(s []int32, base int, src []int32) {
	w.b.meterShared(w.active)
	copy(s[base:base+w.active], src[:w.active])
}

// StShI32Masked is StShI32Row restricted to the lanes in mask.
func (w *Warp) StShI32Masked(s []int32, base int, mask uint32, src []int32) {
	if mask == 0 {
		return
	}
	w.b.meterShared(bits.OnesCount32(mask))
	storeLanes(s, base, src, mask)
}

// LdShF32BcastMasked models the lanes in mask reading the same shared
// element: a hardware broadcast, one instruction, no conflicts. With mask
// 0 it issues nothing and returns 0.
func (w *Warp) LdShF32BcastMasked(s []float32, idx int, mask uint32) float32 {
	if mask == 0 {
		return 0
	}
	w.b.meterShared(bits.OnesCount32(mask))
	return s[idx]
}

// LdShI32Bcast models every live lane reading the same shared element.
func (w *Warp) LdShI32Bcast(s []int32, idx int) int32 {
	w.b.meterShared(w.active)
	return s[idx]
}

// LdShI32BcastMasked is LdShI32Bcast restricted to the lanes in mask.
func (w *Warp) LdShI32BcastMasked(s []int32, idx int, mask uint32) int32 {
	if mask == 0 {
		return 0
	}
	w.b.meterShared(bits.OnesCount32(mask))
	return s[idx]
}

// StShF32I32Row issues ONE shared-store warp instruction whose lanes write
// two different shared arrays at their own index: lanes in maskF store
// vf[l] to sf[base+l], lanes in maskI store vi[l] to si[base+l]. The masks
// must be disjoint.
//
// This exists because the scalar path's positional retirement merges
// divergent stores to different shared arrays into a single instruction
// (shared arrays all carry the same pseudo buffer id, and banks depend only
// on the element index). A kernel whose if- and else-branches store to
// different arrays at the same stream position retires as one instruction
// covering all 32 lanes; a vector port must reproduce that instruction
// count or the meters drift. Addresses base+l are distinct per lane, so the
// merged instruction cannot bank conflict, as in the scalar model.
func (w *Warp) StShF32I32Row(sf []float32, vf []float32, maskF uint32, si []int32, vi []int32, maskI uint32, base int) {
	both := maskF | maskI
	if both == 0 {
		return
	}
	w.b.meterShared(bits.OnesCount32(both))
	storeLanes(sf, base, vf, maskF)
	storeLanes(si, base, vi, maskI)
}
